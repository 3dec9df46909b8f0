package main

import (
	"fmt"
	"math/rand"

	"tva/internal/capability"
	"tva/internal/packet"
	"tva/internal/tvatime"
)

// pktKind is what a generated packet is, so the checks know what the
// router must do with it.
type pktKind uint8

const (
	kindLegit    pktKind = iota // nonce-only regular on a seeded flow
	kindRenewal                 // renewal on a seeded flow (same nonce)
	kindForged                  // regular with a forged capability, fresh sender
	kindColluder                // regular with a valid capability, new flow
	kindRequest                 // capability request
)

// burst is one ingress burst: packets that arrive together on one
// interface.
type burst struct {
	iface int
	pkts  [][]byte
	kinds []pktKind
}

// grantPair is a minted capability and the flow it authorizes.
type grantPair struct {
	src, dst packet.Addr
	cap      uint64
	nkb      uint16
	tsec     uint8
}

// mix is a workload's pregenerated traffic: wire bytes only, so the
// measured code sees exactly what arrives from outside.
type mix struct {
	suite  capability.Suite
	auth   *capability.Authority
	seeds  [][]byte    // first packets that install the seeded flows
	bursts []burst     // the traffic, in order
	grants []grantPair // valid capabilities in the traffic (for probes)
	pkts   int
}

const burstSize = 32

// marshalPkt encodes a generated packet; generation bugs are fatal.
func marshalPkt(p *packet.Packet) []byte {
	if p.Hdr != nil {
		p.Size = packet.OuterHdrLen + p.Hdr.WireSize()
	} else {
		p.Size = packet.OuterHdrLen
	}
	data, err := p.Marshal(nil)
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshal generated packet: %v", err))
	}
	return data
}

// flow is a minted authorization: the capability for (src, dst) and
// the flow nonce its packets carry.
type flow struct {
	grant grantPair
	nonce uint64
}

// mintFlows mints n flows from srcBase toward dsts (taken in turn)
// under auth at now.
func mintFlows(rng *rand.Rand, auth *capability.Authority, suite capability.Suite, now tvatime.Time,
	n int, srcBase packet.Addr, dsts []packet.Addr, nkb uint16, tsec uint8) []flow {
	flows := make([]flow, n)
	for i := range flows {
		src := srcBase + packet.Addr(i)
		dst := dsts[i%len(dsts)]
		cap := suite.MakeCap(auth.PreCap(src, dst, now), nkb, tsec)
		flows[i] = flow{
			grant: grantPair{src: src, dst: dst, cap: cap, nkb: nkb, tsec: tsec},
			nonce: rng.Uint64() & packet.NonceMask,
		}
	}
	return flows
}

// packet encodes one packet of the flow: a regular packet carrying the
// capability (the first packet, which installs the cache entry), a
// nonce-only packet riding the entry, or a renewal on the same nonce (a
// cache hit that mints a fresh pre-capability).
func (f flow) packet(kind packet.Kind, ttl uint8) []byte {
	g := f.grant
	h := &packet.CapHdr{Kind: kind, Proto: packet.ProtoRaw, Nonce: f.nonce}
	if kind != packet.KindNonceOnly {
		h.NKB, h.TSec, h.Caps = g.nkb, g.tsec, []uint64{g.cap}
	}
	return marshalPkt(&packet.Packet{Src: g.src, Dst: g.dst, TTL: ttl, Proto: packet.ProtoRaw, Hdr: h})
}

// requestPkt is a fresh capability request from src to dst.
func requestPkt(src, dst packet.Addr, ttl uint8) []byte {
	h := &packet.CapHdr{Kind: packet.KindRequest, Proto: packet.ProtoRaw}
	return marshalPkt(&packet.Packet{Src: src, Dst: dst, TTL: ttl, Proto: packet.ProtoRaw, Hdr: h})
}

func addrs(base packet.Addr, n int) []packet.Addr {
	out := make([]packet.Addr, n)
	for i := range out {
		out[i] = base + packet.Addr(i)
	}
	return out
}
