package main

import "testing"

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed, so summarize must sort
		}
		return xs
	}
	cases := []struct {
		n       int
		p50     float64
		tailPct float64
		tail    float64
		beyond  int
	}{
		{n: 0},
		{n: 19, p50: 10}, // p75 has 4 beyond: no tail
		{n: 40, p50: 20, tailPct: 75, tail: 30, beyond: 10},     // exactly ten beyond p75
		{n: 100, p50: 50, tailPct: 90, tail: 90, beyond: 10},    // p99 would have 1
		{n: 1000, p50: 500, tailPct: 99, tail: 990, beyond: 10}, // p99.9 would have 1
		{n: 1009, p50: 505, tailPct: 99, tail: 999, beyond: 10}, // rank ceil(998.91)
		{n: 10000, p50: 5000, tailPct: 99.9, tail: 9990, beyond: 10},
		{n: 200000, p50: 100000, tailPct: 99.99, tail: 199980, beyond: 20},
	}
	for _, c := range cases {
		d := summarize(seq(c.n))
		if d.N != c.n || d.P50 != c.p50 || d.TailPct != c.tailPct || d.Tail != c.tail || d.Beyond != c.beyond {
			t.Errorf("n=%d: got N=%d p50=%g tail p%g=%g beyond=%d, want p50=%g tail p%g=%g beyond=%d",
				c.n, d.N, d.P50, d.TailPct, d.Tail, d.Beyond, c.p50, c.tailPct, c.tail, c.beyond)
		}
	}
}

func TestPercentileSupports(t *testing.T) {
	if d := summarize(make([]float64, 999)); d.supports(99) {
		t.Errorf("n=999: p99 has %d beyond, want unsupported", beyond(99, 999))
	}
	if d := summarize(make([]float64, 1000)); !d.supports(99) {
		t.Error("n=1000: p99 has 10 beyond, want supported")
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{id: 1, name: spClientRequest, parent: noParent, start: 0, end: 100},
		{id: 1, name: spClientEncode, parent: spClientRequest, start: 0, end: 10},
		{id: 1, name: spRoundtrip, parent: spClientRequest, start: 20, end: 90},
		{id: 1, name: spServe, parent: spRoundtrip, start: 30, end: 60},
		{id: 2, name: spTx, parent: noParent, start: 0, end: 50},
		{id: 2, name: spClockSample, parent: spTx, start: 5, end: 15},
		{id: 2, name: spClockSample, parent: spTx, start: 10, end: 20}, // overlaps the first
	}
	want := map[string]int64{"client.request": 20, "client.encode": 10, "http.roundtrip": 40, "dlzd.serve": 30, "stm.tx": 35}
	forEachSelf(spans, func(s span, self int64) {
		if w, ok := want[spanNames[s.name]]; ok && self != w {
			t.Errorf("%s self = %d, want %d", spanNames[s.name], self, w)
		}
	})
}

func TestRoundEstimators(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 6, 8, 7, 9}
	if got := betterHalf(xs, true); got != 8 {
		t.Errorf("betterHalf(higher) = %g, want 8", got)
	}
	if got := betterHalf(xs, false); got != 3 {
		t.Errorf("betterHalf(lower) = %g, want 3", got)
	}
	if got := betterHalf([]float64{2, 1}, true); got != 2 {
		t.Errorf("betterHalf of two = %g, want the better one", got)
	}
	if got := midMean(xs); got != 5.5 {
		t.Errorf("midMean = %g, want 5.5", got)
	}
}
