package main

import (
	"fmt"
	"sync"

	"repro/internal/quality"
	"repro/internal/stm"
)

// The tl2-mcclock workload is the paper's Section 8 application: TL2 over
// stm.NewMCClock(tl2Shards, tl2Delta), each transaction incrementing two
// distinct slots of a tl2Slots array.
const (
	tl2Slots  = 100000
	tl2Shards = 16
	tl2Delta  = 128
	// counterAuditIncs is the length of the clock counter's deviation audit.
	counterAuditIncs = 1 << 24
)

// tracingClock wraps a clock so that a sampled transaction's clock calls
// are recorded as spans; it counts Help calls on every transaction.
type tracingClock struct{ inner stm.Clock }

func (c tracingClock) Name() string { return c.inner.Name() + "+trace" }

func (c tracingClock) NewHandle(seed uint64) stm.ClockHandle {
	return &tracingHandle{inner: c.inner.NewHandle(seed)}
}

type tracingHandle struct {
	inner stm.ClockHandle
	on    bool // the owning goroutine is tracing the current transaction
	id    uint64
	log   *spanLog
	helps uint64
}

func (h *tracingHandle) Sample() uint64 {
	if !h.on {
		return h.inner.Sample()
	}
	t0 := now()
	v := h.inner.Sample()
	h.log.add(span{h.id, spClockSample, spTx, t0, now()})
	return v
}

func (h *tracingHandle) CommitVersion(tmax uint64) uint64 {
	if !h.on {
		return h.inner.CommitVersion(tmax)
	}
	t0 := now()
	v := h.inner.CommitVersion(tmax)
	h.log.add(span{h.id, spClockCommit, spTx, t0, now()})
	return v
}

func (h *tracingHandle) Help() {
	h.helps++
	h.inner.Help()
}

type tl2Worker struct {
	m      *meter
	stats  [2]stm.Stats // per mode: untraced, traced
	helps  [2]uint64
	failed uint64
	txNs   []float64 // traced-window sample, ns
	log    *spanLog
}

// A transaction takes about as long as a few clock reads, so the median
// comes from bursts of tl2Burst transactions, every tl2TimedBurstEvery-th
// burst timed as a whole, and the p99 from single transactions: the first
// of every other burst is timed alone. A transaction's retries are part of
// its time. In traced windows every traceSampleEvery-th transaction is
// traced instead.
const (
	tl2Burst           = 32
	tl2TimedBurstEvery = 8
)

// tl2Rounds is how many builds an untraced run measures. A build takes
// about a millisecond, so the run can afford many short rounds, which
// spread the host's bursts of load over more of them.
const tl2Rounds = 40

// counterAudit is the MultiCounter clock's relaxation audit: the mean
// |read - exact| of a fresh clock counter driven single-threaded.
func counterAudit(r *report, seed uint64) {
	const reads = 1 << 14
	clk := stm.NewMCClock(tl2Shards, tl2Delta)
	dev := quality.MeasureCounterDeviation(clk.Counter().NewHandle(seed), counterAuditIncs, reads, nil)
	r.set("relax_error_mean", dev.MeanAbsError,
		"mean |read - exact| of the m=%d clock counter over %d reads in %d single-threaded increments (max %d)",
		tl2Shards, reads, counterAuditIncs, dev.MaxAbsError)
}

type tl2Inst struct {
	arr *stm.Array
	txs [clients]*stm.Tx
	ths [clients]*tracingHandle
}

func runTL2(o opts, r *report) error {
	r.env = append(r.env, fmt.Sprintf("tl2_config slots=%d clock=MCClock(m=%d,delta=%d) tx=increment two distinct slots",
		tl2Slots, tl2Shards, tl2Delta))
	build := func() (*tl2Inst, error) {
		in := &tl2Inst{arr: stm.NewArray(tl2Slots)}
		var clk stm.Clock = stm.NewMCClock(tl2Shards, tl2Delta)
		if o.trace {
			clk = tracingClock{clk}
		}
		for c := range in.txs {
			h := clk.NewHandle(uint64(1 + c))
			if th, ok := h.(*tracingHandle); ok {
				in.ths[c] = th
			}
			in.txs[c] = stm.NewTx(in.arr, h, uint64(11+c))
		}
		return in, nil
	}
	round := func(in *tl2Inst, p *phaser, seconds float64, rd roundID) ([]*meter, error) {
		return tl2Round(o, r, in, p, seconds, rd)
	}
	res, err := measureRounds(o, r, tl2Rounds, fmt.Sprintf("a %d-slot stm.Array and an MCClock(%d, %d)", tl2Slots, tl2Shards, tl2Delta),
		build, func(*tl2Inst) {}, round)
	if err != nil || o.trace {
		return err
	}
	setRounds(r, res, "committed transactions per second",
		fmt.Sprintf("per-transaction time of a burst of %d transactions with their retries, every %dth burst timed", tl2Burst, tl2TimedBurstEvery),
		"one transaction with its retries timed alone, the first of every untimed burst", 1e3)
	counterAudit(r, o.seed)
	return nil
}

func tl2Round(o opts, r *report, in *tl2Inst, p *phaser, seconds float64, rd roundID) ([]*meter, error) {
	var (
		wg      sync.WaitGroup
		workers [clients]*tl2Worker
		meters  []*meter
	)
	for c := range workers {
		w := &tl2Worker{m: newMeter(p, 1<<16)}
		if o.trace {
			w.log = newSpanLog(1 << 20)
			in.ths[c].log = w.log
		}
		workers[c] = w
		meters = append(meters, w.m)
		wg.Add(1)
		go func(c int, w *tl2Worker) {
			defer wg.Done()
			tx, th := in.txs[c], in.ths[c]
			g := tl2Gen{newStream(o.seed, "tl2-mcclock", uint64(c)), tl2Slots}
			var i, j int
			body := func(tx *stm.Tx) error {
				a, err := tx.Load(i)
				if err != nil {
					return err
				}
				b, err := tx.Load(j)
				if err != nil {
					return err
				}
				tx.Store(i, a+1)
				tx.Store(j, b+1)
				return nil
			}
			last := int32(0)
			var base stm.Stats
			var helpBase uint64
			// credit books the transaction outcomes since the last call to
			// window w.
			credit := func(w32 int32) {
				mode := p.mode(w32)
				w.m.units[w32] += float64(tx.Stats.Commits - base.Commits)
				w.stats[mode].Commits += tx.Stats.Commits - base.Commits
				for k := range base.Aborts {
					w.stats[mode].Aborts[k] += tx.Stats.Aborts[k] - base.Aborts[k]
				}
				base = tx.Stats
				if th != nil {
					w.helps[mode] += th.helps - helpBase
					helpBase = th.helps
				}
			}
			run := func() {
				if tx.Run(body) != nil {
					w.failed++
				}
			}
			for b := uint64(0); !p.stop.Load(); b++ {
				ph := p.phase.Load()
				if ph != last {
					credit(last)
					last = ph
				}
				traced := p.traced(ph)
				timed := !traced && b%tl2TimedBurstEvery == 0
				burstStart := now()
				for k := uint64(0); k < tl2Burst; k++ {
					n := b*tl2Burst + k
					i, j = g.next()
					single := !traced && !timed && k == 0
					spanned := traced && n%traceSampleEvery == 0
					if !single && !spanned {
						run()
						continue
					}
					id := uint64(c)<<seqBits | n
					if spanned {
						th.on, th.id = true, id
					}
					t0 := now()
					run()
					t1 := now()
					if single {
						w.m.tail = append(w.m.tail, float64(t1-t0))
						continue
					}
					th.on = false
					w.txNs = append(w.txNs, float64(t1-t0))
					w.log.add(span{id, spTx, noParent, t0, t1})
				}
				if timed {
					w.m.mid = append(w.m.mid, float64(now()-burstStart)/tl2Burst)
				}
			}
			credit(last)
		}(c, w)
	}
	p.drive(seconds, nil)
	wg.Wait()

	var (
		tot     tl2Worker
		commits uint64
	)
	for _, w := range workers {
		for m := 0; m < 2; m++ {
			tot.stats[m].Commits += w.stats[m].Commits
			for k := range w.stats[m].Aborts {
				tot.stats[m].Aborts[k] += w.stats[m].Aborts[k]
			}
			tot.helps[m] += w.helps[m]
			commits += w.stats[m].Commits
		}
		tot.failed += w.failed
		tot.txNs = append(tot.txNs, w.txNs...)
	}
	r.attempted += commits + tot.failed
	r.failed += tot.failed
	sum := in.arr.Sum()
	r.check("tl2-sum", sum == 2*commits, "%s: array sum %d, 2 x commits = %d", rd, sum, 2*commits)

	if !o.trace {
		return meters, nil
	}

	frac, u, t := p.overhead(meters)
	r.set("trace_overhead_frac", frac, "commits/s untraced %.0f vs traced %.0f (base: untraced)", u, t)
	tx := summarize(tot.txNs)
	r.set("stm.tx_ns_p50", tx.P50, "%s", tx)
	st := tot.stats[1]
	aborts := st.TotalAborts()
	r.set("stm.abort_frac", float64(aborts)/float64(aborts+st.Commits),
		"%d aborts over %d attempts in traced windows", aborts, aborts+st.Commits)
	for k, n := range st.Aborts {
		r.set("stm.aborts."+stm.AbortCause(k).String(), float64(n), "traced windows")
	}
	r.set("clock.help_per_kcommit", 1000*float64(tot.helps[1])/float64(st.Commits),
		"%d helps over %d traced commits", tot.helps[1], st.Commits)

	var spans []span
	dropped := 0
	for _, w := range workers {
		spans = append(spans, w.log.spans...)
		dropped += w.log.dropped
	}
	var sample, commit []float64
	var clockNs, txTotal int64
	for _, s := range spans {
		d := s.end - s.start
		switch s.name {
		case spClockSample:
			sample = append(sample, float64(d))
			clockNs += d
		case spClockCommit:
			commit = append(commit, float64(d))
			clockNs += d
		case spTx:
			txTotal += d
		}
	}
	sd, cd := summarize(sample), summarize(commit)
	r.set("clock.sample_ns_p50", sd.P50, "%s", sd)
	r.set("clock.commit_version_ns_p50", cd.P50, "%s", cd)
	r.set("clock.share_of_tx", float64(clockNs)/float64(txTotal),
		"clock spans %.3fms of %.3fms in %d sampled transactions (base: stm.tx)", float64(clockNs)/1e6, float64(txTotal)/1e6, tx.N)
	return meters, writeSpans(o, "tl2-mcclock", spans, dropped)
}
