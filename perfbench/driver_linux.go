//go:build linux && amd64

package main

import (
	"net"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// Syscall numbers on linux/amd64 (the syscall package lacks sendmmsg).
const (
	sysRecvmmsg = 299
	sysSendmmsg = 307
)

// mmsghdr mirrors struct mmsghdr on 64-bit Linux: a msghdr plus the
// kernel-filled length, padded to 8-byte stride.
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
	_   uint32
}

// driverConn is the load generator's socket: bursts of datagrams move
// with one sendmmsg or recvmmsg each, like the router's own batched
// socket path, so the driver is not the bottleneck it measures. When
// timing is on, the time inside each syscall (not the netpoll wait
// before it) is accumulated per direction.
type driverConn struct {
	conn *net.UDPConn
	rc   syscall.RawConn
	to   []byte // raw sockaddr of the router
	tol  uint32

	rxHdrs []mmsghdr
	rxIovs []syscall.Iovec
	rxBufs [][]byte
	txHdrs []mmsghdr
	txIovs []syscall.Iovec

	// The netpoll callbacks are bound once: a closure built per call
	// would allocate on every burst and show up in the process's
	// allocation count as if the router had made it.
	readFn, writeFn func(fd uintptr) bool
	rxN, txN, sent  int
	rxErr, txErr    error

	timing         bool
	sendNs, recvNs time.Duration
	sendPkts       int64
	recvPkts       int64
}

func newDriverConn(conn *net.UDPConn, to *net.UDPAddr, n int) (*driverConn, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, err
	}
	ip4 := to.IP.To4()
	if ip4 == nil {
		return nil, &net.AddrError{Err: "driver needs an IPv4 router address", Addr: to.String()}
	}
	var sa syscall.RawSockaddrInet4
	sa.Family = syscall.AF_INET
	sa.Port = uint16(to.Port>>8) | uint16(to.Port&0xff)<<8
	copy(sa.Addr[:], ip4)
	raw := make([]byte, syscall.SizeofSockaddrInet4)
	copy(raw, (*[syscall.SizeofSockaddrInet4]byte)(unsafe.Pointer(&sa))[:])
	d := &driverConn{
		conn: conn, rc: rc, to: raw, tol: syscall.SizeofSockaddrInet4,
		rxHdrs: make([]mmsghdr, n), rxIovs: make([]syscall.Iovec, n), rxBufs: make([][]byte, n),
		txHdrs: make([]mmsghdr, n), txIovs: make([]syscall.Iovec, n),
	}
	for i := range d.rxBufs {
		d.rxBufs[i] = make([]byte, 2048)
	}
	d.readFn = d.readOnce
	d.writeFn = d.writeOnce
	return d, nil
}

// send transmits pkts (at most the burst size) to the router and
// returns how many the kernel took.
func (d *driverConn) send(pkts [][]byte) (int, error) {
	n := len(pkts)
	if n > len(d.txHdrs) {
		n = len(d.txHdrs)
	}
	for i := 0; i < n; i++ {
		d.txIovs[i] = syscall.Iovec{Base: &pkts[i][0], Len: uint64(len(pkts[i]))}
		d.txHdrs[i] = mmsghdr{hdr: syscall.Msghdr{Name: &d.to[0], Namelen: d.tol, Iov: &d.txIovs[i], Iovlen: 1}}
	}
	d.txN, d.sent, d.txErr = n, 0, nil
	err := d.rc.Write(d.writeFn)
	d.sendPkts += int64(d.sent)
	if err != nil {
		return d.sent, err
	}
	return d.sent, d.txErr
}

func (d *driverConn) writeOnce(fd uintptr) bool {
	for d.sent < d.txN {
		var t0 time.Time
		if d.timing {
			t0 = time.Now()
		}
		r1, _, errno := syscall.Syscall6(sysSendmmsg, fd,
			uintptr(unsafe.Pointer(&d.txHdrs[d.sent])), uintptr(d.txN-d.sent), syscall.MSG_DONTWAIT, 0, 0)
		if d.timing {
			d.sendNs += time.Since(t0)
		}
		if errno == syscall.EAGAIN {
			return false // netpoll waits for writability, then retries
		}
		if errno != 0 {
			d.txErr = os.NewSyscallError("sendmmsg", errno)
			return true
		}
		d.sent += int(r1)
	}
	return true
}

// recv blocks until at least one datagram is readable (or the read
// deadline passes) and drains up to the burst size with one recvmmsg.
func (d *driverConn) recv() (int, error) {
	for i := range d.rxHdrs {
		d.rxIovs[i] = syscall.Iovec{Base: &d.rxBufs[i][0], Len: uint64(len(d.rxBufs[i]))}
		d.rxHdrs[i] = mmsghdr{hdr: syscall.Msghdr{Iov: &d.rxIovs[i], Iovlen: 1}}
	}
	d.rxN, d.rxErr = 0, nil
	err := d.rc.Read(d.readFn)
	d.recvPkts += int64(d.rxN)
	if err != nil {
		return 0, err
	}
	return d.rxN, d.rxErr
}

func (d *driverConn) readOnce(fd uintptr) bool {
	var t0 time.Time
	if d.timing {
		t0 = time.Now()
	}
	r1, _, errno := syscall.Syscall6(sysRecvmmsg, fd,
		uintptr(unsafe.Pointer(&d.rxHdrs[0])), uintptr(len(d.rxHdrs)), syscall.MSG_DONTWAIT, 0, 0)
	if d.timing {
		d.recvNs += time.Since(t0)
	}
	if errno == syscall.EAGAIN {
		return false // netpoll waits for readability, then retries
	}
	if errno != 0 {
		d.rxErr = os.NewSyscallError("recvmmsg", errno)
		return true
	}
	d.rxN = int(r1)
	return true
}

// payload returns the i-th datagram of the last recv.
func (d *driverConn) payload(i int) []byte { return d.rxBufs[i][:d.rxHdrs[i].len] }
