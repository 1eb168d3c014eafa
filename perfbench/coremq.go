package main

import (
	"fmt"
	"runtime"
	"sync"

	"repro/dlz"
	"repro/dlzd"
	"repro/internal/dlin"
	"repro/internal/quality"
)

// coreMQPrefill is 4 Mi elements: 64 MiB of 16-byte items, far beyond L2,
// so heap operations pay for cache misses as a large standing queue does.
const coreMQPrefill = 1 << 22

// auditOps is the length of the single-threaded rank audit: long enough
// that its mean moves by a few percent at most between seeds.
const auditOps = 1 << 22

// tenantQueueConfig is the MultiQueue a dlzd tenant gets under cfg.
func tenantQueueConfig(cfg dlzd.Config, seed uint64) dlz.MultiQueueConfig {
	return dlz.MultiQueueConfig{
		Topology:   dlz.Topology{InitialM: cfg.Queues},
		Backing:    cfg.Backing,
		Capacity:   cfg.Capacity,
		Seed:       seed,
		Choices:    cfg.Choices,
		Stickiness: cfg.Stickiness,
		Batch:      cfg.Batch,
		Affinity:   cfg.Affinity,
	}
}

// rankAudit is the deterministic single-threaded dequeue rank audit of the
// shipped tenant queue configuration, seeded from the run's seed.
func rankAudit(r *report, seed uint64) {
	q := dlz.NewMultiQueue(tenantQueueConfig(shipped(), seed))
	s := quality.MeasureDequeueRank(q.NewHandle(seed+1), 64*q.M(), auditOps)
	env := dlin.Envelope(q.M())
	where := "inside"
	if s.Mean() > env {
		where = "outside"
	}
	r.set("relax_error_mean", s.Mean(),
		"mean dequeue rank error of the shipped tenant queue, n=%d single-threaded dequeues; %s the m*log2(m)=%.0f envelope",
		s.N(), where, env)
}

type coreWorker struct {
	m                        *meter
	enq, deq, empty, rerolls [2]uint64 // per mode: untraced, traced
	enqNs, deqNs             []float64 // traced-window samples, ns
	log                      *spanLog
}

// One handle call is not much longer than a clock read. So the median
// comes from bursts of coreBurst consecutive calls, every timedBurstEvery-th
// burst timed as a whole (the two clock reads add about 1% to it), and the
// p99 from single calls: the first call of every other burst is timed
// alone, so that a slow call is not averaged away in its burst. In traced
// windows every traceSampleEvery-th call is timed alone instead, as a span.
const (
	coreBurst        = 64
	timedBurstEvery  = 16
	traceSampleEvery = 64
)

type coreInst struct {
	q  *dlz.MultiQueue
	hs [clients]*dlz.MQHandle
}

func runCoreMQ(o opts, r *report) error {
	cfg := tenantQueueConfig(shipped(), 1)
	r.env = append(r.env, fmt.Sprintf("core_config m=%d backing=%s d=%d s=%d k=%d affinity=%g prefill=%d",
		cfg.Topology.InitialM, cfg.Backing, cfg.Choices, cfg.Stickiness, cfg.Batch, cfg.Affinity, coreMQPrefill))
	build := func() (*coreInst, error) {
		in := &coreInst{q: dlz.NewMultiQueue(cfg)}
		ph := in.q.NewHandle(2)
		g := coreGen{newStream(o.seed, "core-mq", rolePrefill)}
		for i := 0; i < coreMQPrefill; i++ {
			_, p := g.next()
			ph.EnqueuePriority(p, uint64(i))
		}
		ph.Close()
		for c := range in.hs {
			in.hs[c] = in.q.NewHandle(uint64(3 + c))
		}
		return in, nil
	}
	round := func(in *coreInst, p *phaser, seconds float64, rd roundID) ([]*meter, error) {
		return coreRound(o, r, in, p, seconds, rd)
	}
	res, err := measureRounds(o, r, defaultRounds, fmt.Sprintf("NewMultiQueue plus a %d-element prefill", coreMQPrefill),
		build, func(*coreInst) {}, round)
	if err != nil || o.trace {
		return err
	}
	setRounds(r, res, "handle operations per second",
		fmt.Sprintf("per-call time of a burst of %d handle calls, every %dth burst timed", coreBurst, timedBurstEvery),
		"one handle call timed alone, the first of every untimed burst", 1e3)
	rankAudit(r, o.seed)
	return nil
}

func coreRound(o opts, r *report, in *coreInst, p *phaser, seconds float64, rd roundID) ([]*meter, error) {
	var (
		wg      sync.WaitGroup
		workers [clients]*coreWorker
		meters  []*meter
	)
	for c := range workers {
		w := &coreWorker{m: newMeter(p, 1<<18)}
		if o.trace {
			w.log = newSpanLog(1 << 20)
		}
		workers[c] = w
		meters = append(meters, w.m)
		wg.Add(1)
		go func(c int, w *coreWorker) {
			defer wg.Done()
			h := in.hs[c]
			g := coreGen{newStream(o.seed, "core-mq", uint64(c))}
			value := valueOf(uint64(c)+1, 0)
			last, rerollBase := int32(0), h.Rerolls()
			for b := uint64(0); !p.stop.Load(); b++ {
				ph := p.phase.Load()
				if ph != last {
					rr := h.Rerolls()
					w.rerolls[p.mode(last)] += rr - rerollBase
					rerollBase, last = rr, ph
				}
				mode, traced := p.mode(ph), p.traced(ph)
				timed := !traced && b%timedBurstEvery == 0
				burstStart := now()
				for k := uint64(0); k < coreBurst; k++ {
					i := b*coreBurst + k
					var t0 int64
					if (traced && i%traceSampleEvery == 0) || (!traced && !timed && k == 0) {
						t0 = now()
					}
					enq, prio := g.next()
					if enq {
						h.EnqueuePriority(prio, value)
						value++
						w.enq[mode]++
					} else if _, ok := h.Dequeue(); ok {
						w.deq[mode]++
					} else {
						w.empty[mode]++
					}
					if t0 == 0 {
						continue
					}
					t1 := now()
					if !traced {
						w.m.tail = append(w.m.tail, float64(t1-t0))
						continue
					}
					name := spCoreDequeue
					if enq {
						name = spCoreEnqueue
						w.enqNs = append(w.enqNs, float64(t1-t0))
					} else {
						w.deqNs = append(w.deqNs, float64(t1-t0))
					}
					w.log.add(span{uint64(c)<<seqBits | i, name, noParent, t0, t1})
				}
				w.m.units[ph] += coreBurst
				if timed {
					w.m.mid = append(w.m.mid, float64(now()-burstStart)/coreBurst)
				}
			}
			w.rerolls[p.mode(last)] += h.Rerolls() - rerollBase
		}(c, w)
	}

	// Structure counters and allocations are read at window boundaries and
	// credited to the window that just ended.
	type snap struct {
		st      dlz.MQStats
		mallocs uint64
	}
	var (
		acc    [2]snap
		prev   snap
		ms     runtime.MemStats
		prevPh int32
	)
	p.drive(seconds, func(ph int32) {
		if !o.trace {
			return
		}
		runtime.ReadMemStats(&ms)
		cur := snap{in.q.Stats(), ms.Mallocs}
		if ph != 0 {
			m := p.mode(prevPh)
			acc[m].st.LockContended += cur.st.LockContended - prev.st.LockContended
			acc[m].st.Elisions += cur.st.Elisions - prev.st.Elisions
			acc[m].st.Publications += cur.st.Publications - prev.st.Publications
			acc[m].mallocs += cur.mallocs - prev.mallocs
		}
		prev, prevPh = cur, ph
	})
	wg.Wait()

	var tot coreWorker
	var enqTotal, deqTotal, ops uint64
	for _, w := range workers {
		for m := 0; m < 2; m++ {
			tot.enq[m] += w.enq[m]
			tot.deq[m] += w.deq[m]
			tot.empty[m] += w.empty[m]
			tot.rerolls[m] += w.rerolls[m]
			enqTotal += w.enq[m]
			deqTotal += w.deq[m]
			ops += w.enq[m] + w.deq[m] + w.empty[m]
		}
		tot.enqNs = append(tot.enqNs, w.enqNs...)
		tot.deqNs = append(tot.deqNs, w.deqNs...)
	}
	r.attempted += ops

	for _, h := range in.hs {
		h.Close() // publishes buffered inserts and returns prefetched elements
	}
	want := uint64(coreMQPrefill) + enqTotal - deqTotal
	got := in.q.Len()
	r.check("core-mq-ledger", uint64(got) == want, "%s: Len after closing handles %d, prefill %d + enqueued %d - dequeued %d = %d",
		rd, got, coreMQPrefill, enqTotal, deqTotal, want)
	if !o.trace {
		return meters, nil
	}

	frac, u, t := p.overhead(meters)
	r.set("trace_overhead_frac", frac, "ops/s untraced %.0f vs traced %.0f (base: untraced)", u, t)
	enq, deq := summarize(tot.enqNs), summarize(tot.deqNs)
	r.set("core.enqueue_ns_p50", enq.P50, "%s", enq)
	r.set("core.dequeue_ns_p50", deq.P50, "%s", deq)
	ops1 := float64(tot.enq[1] + tot.deq[1] + tot.empty[1])
	r.set("core.lock_contended_per_kop", 1000*float64(acc[1].st.LockContended)/ops1,
		"%d contended acquisitions over %.0f traced ops", acc[1].st.LockContended, ops1)
	pubs := acc[1].st.Elisions + acc[1].st.Publications
	r.set("core.elision_ratio", float64(acc[1].st.Elisions)/float64(pubs),
		"%d elided of %d critical sections", acc[1].st.Elisions, pubs)
	deqAttempts := tot.deq[1] + tot.empty[1]
	r.set("core.rerolls_per_kdequeue", 1000*float64(tot.rerolls[1])/float64(deqAttempts),
		"%d rerolls over %d traced dequeues", tot.rerolls[1], deqAttempts)
	r.set("core.empty_dequeues", float64(tot.empty[1]), "of %d traced dequeues", deqAttempts)
	r.set("core.allocs_per_op", float64(acc[1].mallocs)/ops1, "%d mallocs over %.0f traced ops", acc[1].mallocs, ops1)
	var spans []span
	dropped := 0
	for _, w := range workers {
		spans = append(spans, w.log.spans...)
		dropped += w.log.dropped
	}
	return meters, writeSpans(o, "core-mq", spans, dropped)
}
