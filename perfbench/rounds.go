package main

import (
	"fmt"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// An untraced run measures several fresh builds, one after the other, for
// an equal share of --seconds each: defaultRounds of them unless a workload
// needs longer rounds or can afford more of them. Other tenants of a shared
// host take CPU time in bursts (up to 30% of it was seen), which only ever
// slows a round down, so the throughput and latency figures are means over
// the better half of the rounds; the resident set, which that does not
// move, is the interquartile mean.
const defaultRounds = 10

// A run builds its workload at least minSetups times before the first
// round, and until setupBudget has been spent on building, at most
// maxSetups times; every later round builds once. setup_s is the median of
// all build times.
const (
	minSetups   = 5
	maxSetups   = 101
	setupBudget = time.Second
)

// phaser runs one round's measured windows. An untraced round is one
// window. A traced run is one round of four windows, alternately untraced
// and traced, so that both modes see the same structure state and their
// throughput difference is the tracing overhead. Workers read phase, the
// current window, on every unit of work.
type phaser struct {
	trace bool
	phase atomic.Int32
	stop  atomic.Bool
	dur   []time.Duration // per window
	rss   []float64       // resident set samples taken during the windows, MB
}

func newPhaser(o opts) *phaser {
	if o.trace {
		return &phaser{trace: true, dur: make([]time.Duration, 4)}
	}
	return &phaser{dur: make([]time.Duration, 1)}
}

// warmUp is the phase before the first window: workers run but their work
// is not measured. A round that needs it stores it in phase before it
// starts its workers.
const warmUp = -1

// traced reports whether window w records spans.
func (p *phaser) traced(w int32) bool { return p.trace && w >= 0 && w&1 == 1 }

// mode is 1 in traced windows and 0 otherwise, for per-mode tallies.
func (p *phaser) mode(w int32) int {
	if p.traced(w) {
		return 1
	}
	return 0
}

// rssEvery is how often drive samples the resident set.
const rssEvery = 10 * time.Millisecond

// drive sleeps through the windows, sampling the resident set, and calls at
// (if non-nil) at the start of each window, then once more with -1 after
// the last one.
func (p *phaser) drive(seconds float64, at func(w int32)) {
	seg := time.Duration(seconds / float64(len(p.dur)) * float64(time.Second))
	for i := range p.dur {
		if at != nil {
			at(int32(i))
		}
		p.phase.Store(int32(i))
		start := time.Now()
		for left := seg; left > 0; left = seg - time.Since(start) {
			time.Sleep(min(left, rssEvery))
			p.rss = append(p.rss, residentMB())
		}
		p.dur[i] += time.Since(start)
	}
	p.stop.Store(true)
	if at != nil {
		at(-1)
	}
}

// meter is one worker's tally per window: units of work completed, and the
// latency samples taken in untraced windows. mid feeds the median and tail
// the p99. Where one operation is long enough to time alone (a daemon
// request), both hold the same samples. Where it is not much longer than a
// clock read, mid holds the per-operation time of timed bursts, and tail
// holds single operations timed alone, so the p99 is a per-operation tail.
type meter struct {
	units     []float64
	mid, tail []float64
}

func newMeter(p *phaser, latCap int) *meter {
	return &meter{units: make([]float64, len(p.dur)), mid: make([]float64, 0, latCap), tail: make([]float64, 0, latCap)}
}

// overhead is the tracing overhead: the traced windows' throughput
// shortfall against the untraced windows of the same run.
func (p *phaser) overhead(ms []*meter) (frac, untraced, traced float64) {
	var units, secs [2]float64
	for w, d := range p.dur {
		m := p.mode(int32(w))
		secs[m] += d.Seconds()
		for _, mt := range ms {
			units[m] += mt.units[w]
		}
	}
	untraced, traced = units[0]/secs[0], units[1]/secs[1]
	return (untraced - traced) / untraced, untraced, traced
}

// residentMB reads the process's resident set from /proc/self/statm.
func residentMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// roundID is round i (from 0) of n in a run.
type roundID struct{ i, n int }

func (rd roundID) String() string { return fmt.Sprintf("round %d/%d", rd.i+1, rd.n) }

func (rd roundID) last() bool { return rd.i == rd.n-1 }

// roundResult is one untraced round's end-to-end figures.
type roundResult struct {
	thr       float64
	rss       dist
	mid, tail dist
	secs      float64
}

// measureRounds builds and measures the workload: n rounds for an untraced
// run, one for a traced run. round measures one build for the
// given seconds, checks its outputs, tears it down and returns its meters.
// teardown releases the builds set-up timing discards.
func measureRounds[T any](o opts, r *report, n int, what string, build func() (T, error), teardown func(T),
	round func(in T, p *phaser, seconds float64, rd roundID) ([]*meter, error)) ([]roundResult, error) {
	secs := o.seconds / float64(n)
	if o.trace {
		n, secs = 1, o.seconds
	}
	var (
		times []float64
		res   []roundResult
	)
	timed := func() (T, error) {
		// Return the previous build's memory to the OS, so that each build
		// starts from the same resident set.
		debug.FreeOSMemory()
		start := time.Now()
		in, err := build()
		times = append(times, time.Since(start).Seconds())
		return in, err
	}
	for i := 0; i < n; i++ {
		in, err := timed()
		for i == 0 && err == nil && (len(times) < minSetups || (sum(times) < setupBudget.Seconds() && len(times) < maxSetups)) {
			teardown(in)
			in, err = timed()
		}
		if err != nil {
			return nil, err
		}
		p := newPhaser(o)
		ms, err := round(in, p, secs, roundID{i, n})
		if err != nil {
			return nil, err
		}
		var units float64
		var mid, tail []float64
		for _, m := range ms {
			units += m.units[0]
			mid = append(mid, m.mid...)
			tail = append(tail, m.tail...)
		}
		res = append(res, roundResult{units / p.dur[0].Seconds(), summarize(p.rss), summarize(mid), summarize(tail), p.dur[0].Seconds()})
	}
	r.set("setup_s", median(times), "median of %d builds: %s", len(times), what)
	return res, nil
}

// setRounds reports an untraced run's throughput, latency and resident set
// from the rounds' figures. mid and tail say what the median's and the
// p99's samples are; scale converts them to microseconds.
func setRounds(r *report, res []roundResult, units, mid, tail string, scale float64) {
	var thr, rss, peak, p50, p99, midAll, tailAll []float64
	thin := 0
	for _, rr := range res {
		thr = append(thr, rr.thr)
		rss = append(rss, rr.rss.P50)
		peak = append(peak, rr.rss.at(100))
		p50 = append(p50, rr.mid.P50/scale)
		p99 = append(p99, rr.tail.at(99)/scale)
		midAll = append(midAll, rr.mid.sorted...)
		tailAll = append(tailAll, rr.tail.sorted...)
		if !rr.tail.supports(99) {
			thin++
		}
	}
	m, t := summarize(midAll), summarize(tailAll)
	r.set("throughput_per_s", betterHalf(thr, true), "%s; mean of the better half of %d rounds of %.2fs, rounds %s",
		units, len(res), res[0].secs, list(thr))
	r.set("latency_p50_us", betterHalf(p50, false), "%s; n=%d samples; rounds %s", mid, m.N, list(p50))
	r.set("latency_p99_us", betterHalf(p99, false), "%s; n=%d samples; rounds %s; all rounds pooled: p50=%.4g p%g=%.4g (%d beyond)",
		tail, t.N, list(p99), t.P50/scale, t.TailPct, t.Tail/scale, t.Beyond)
	r.set("rss_mb", midMean(rss), "interquartile mean of the rounds' median resident set, sampled every %s; rounds %s; peaks %s",
		rssEvery, list(rss), list(peak))
	r.check("p99-sample-size", thin == 0, "%d of %d rounds have at least %d samples beyond p99", len(res)-thin, len(res), minBeyond)
}

// betterHalf is the mean of the better half of xs (rounded up): the highest
// values when higher is better, else the lowest.
func betterHalf(xs []float64, higher bool) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := (len(s) + 1) / 2
	if higher {
		return sum(s[len(s)-k:]) / float64(k)
	}
	return sum(s[:k]) / float64(k)
}

// midMean is the interquartile mean of xs: the mean without the lowest and
// the highest quarter of the values.
func midMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := len(s) / 4
	s = s[q : len(s)-q]
	return sum(s) / float64(len(s))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func list(xs []float64) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.4g", x)
	}
	return s
}
