//go:build !(linux && amd64)

package main

import (
	"errors"
	"net"
	"time"
)

// driverConn needs recvmmsg/sendmmsg; elsewhere socket-steady reports
// an error instead of measuring a different driver.
type driverConn struct {
	timing         bool
	sendNs, recvNs time.Duration
	sendPkts       int64
	recvPkts       int64
}

func newDriverConn(*net.UDPConn, *net.UDPAddr, int) (*driverConn, error) {
	return nil, errors.New("socket-steady needs recvmmsg/sendmmsg (linux/amd64)")
}

func (d *driverConn) send([][]byte) (int, error) { return 0, errors.New("unsupported") }
func (d *driverConn) recv() (int, error)         { return 0, errors.New("unsupported") }
func (d *driverConn) payload(int) []byte         { return nil }
