// Package hotpath seeds one violation of every construct the hotpath
// analyzer forbids, plus the allowed idioms, so lint_test can prove
// the analyzer catches each one (and only them). The `want` comments
// are matched by line against the analyzer's findings.
package hotpath

import (
	"fmt"
	"time"

	"tva/internal/metrics"
)

var sink, src []int

// The streaming-metrics instruments: calling them from Hot makes the
// analyzer traverse their module bodies, proving Record/Set/Observe
// are allocation-free entry points (no want comments — no findings).
var (
	pktCtr  metrics.Counter
	level   metrics.Gauge
	waitSkt metrics.Sketch
)

type pair struct{ a, b int }

//tva:hotpath
func Hot(n int, buf []byte) []byte {
	fmt.Println(n)               // want "calls fmt.Println"
	_ = time.Now()               // want "calls time.Now"
	_ = make([]int, n)           // want "make([]int) allocates"
	_ = map[int]int{1: 1}        // want "map literal allocates"
	_ = []int{n}                 // want "slice literal allocates"
	_ = &pair{n, n}              // want "&composite literal escapes"
	f := func() int { return n } // want "closure allocation"
	_ = f
	sink = append(src, n) // want "append into escaping destination"
	helper(pick(n))
	//lint:ignore hotpath the fixture's deliberate off-path call is not walked
	coldHelper(n)
	pktCtr.Record(1)
	level.Set(1.5)
	waitSkt.Observe(int64(n))

	// Allowed idioms: appending into a local slice variable, and the
	// capacity-recycling self-append (even through a global or field).
	buf = append(buf, 1)
	sink = append(sink, n)
	var h holder
	h.items = append(h.items, n)
	return buf
}

type holder struct{ items []int }

// helper is reached transitively from Hot, so its finding carries the
// "reachable from" suffix.
func helper(s string) {
	_ = s + "!" // want "string concatenation allocates"
}

// coldHelper allocates, but its only hot caller opts out with a
// directive on the call, so its body is never scanned.
func coldHelper(n int) []int {
	return make([]int, n)
}

func pick(n int) string {
	if n > 0 {
		return "+"
	}
	return "-"
}

// Cold is not annotated and not called from Hot: nothing in it may be
// reported.
func Cold() string {
	return fmt.Sprintf("%d", len(sink))
}
