package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"

	"repro/dlz"
	"repro/dlzd"
	"repro/internal/wal"
)

// layerParts is the replayed cost of one request of each kind in a layer,
// in nanoseconds: what the layer's public functions take for the recorded
// request bodies on an identically configured, identically prefilled copy.
type layerParts struct {
	wire, core, wal [numOps]float64
}

// allocReplayReqs bounds the ServeHTTP allocation replay per request kind.
const allocReplayReqs = 256

// decoded is one recorded request with its request and response bodies
// parsed back into the wire types.
type decoded struct {
	op   opKind
	enq  dlzd.EnqueueBatchRequest
	del  dlzd.DeleteMinRequest
	add  dlzd.CounterAddRequest
	enqR dlzd.EnqueueBatchResponse
	delR dlzd.DeleteMinResponse
	addR dlzd.CounterAddResponse
}

// decodeLikeServer parses a body the way the dlzd handlers do.
func decodeLikeServer(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// replay sends the recorded traced requests through each layer's public
// functions and reports the wire.*, core.*, wal.append_us and
// dlzd.allocs_per_req.* metrics.
func replay(o opts, r *report, spec dlzdSpec, cfg dlzd.Config, recs []recorded) (layerParts, error) {
	var (
		parts layerParts
		n     [numOps]float64
		dec   = make([]decoded, len(recs))
		buf   bytes.Buffer
	)
	// Wire: request decode as the handlers decode, response encode as
	// writeJSON encodes.
	for i, rc := range recs {
		d := &dec[i]
		d.op = rc.op
		var req, resp any
		switch rc.op {
		case opEnqueue:
			req, resp = &d.enq, &d.enqR
		case opDeleteMin:
			req, resp = &d.del, &d.delR
		case opCounterAdd:
			req, resp = &d.add, &d.addR
		}
		t0 := now()
		err := decodeLikeServer(rc.req, req)
		t1 := now()
		if err != nil {
			return parts, fmt.Errorf("replay decode: %w", err)
		}
		if err := json.Unmarshal(rc.resp, resp); err != nil {
			return parts, fmt.Errorf("replay response: %w", err)
		}
		buf.Reset()
		t2 := now()
		err = json.NewEncoder(&buf).Encode(resp)
		t3 := now()
		if err != nil {
			return parts, err
		}
		parts.wire[rc.op] += float64(t1 - t0 + t3 - t2)
		n[rc.op]++
		switch rc.op {
		case opEnqueue, opCounterAdd:
			r.metrics["wire.decode_us."+opNames[rc.op]] += float64(t1-t0) / 1e3
		case opDeleteMin:
			r.metrics["wire.encode_us.delete_min"] += float64(t3-t2) / 1e3
		}
	}
	for op := range n {
		if n[op] == 0 {
			return parts, fmt.Errorf("replay: no traced %s requests recorded", opNames[op])
		}
		parts.wire[op] /= n[op]
	}
	r.metrics["wire.decode_us.enqueue"] /= n[opEnqueue]
	r.metrics["wire.decode_us.counter_add"] /= n[opCounterAdd]
	r.metrics["wire.encode_us.delete_min"] /= n[opDeleteMin]
	for _, k := range []string{"wire.decode_us.enqueue", "wire.decode_us.counter_add", "wire.encode_us.delete_min"} {
		r.notes[k] = fmt.Sprintf("mean over %v replayed requests (enqueue, delete_min, counter_add)", n)
	}

	// Core: the recorded operations through one MQHandle and one counter
	// Handle, as a session lease holds them.
	q := dlz.NewMultiQueue(tenantQueueConfig(cfg, cfg.Seed))
	mc := dlz.NewMultiCounterConfig(dlz.MultiCounterConfig{
		Topology: dlz.Topology{InitialM: cfg.Queues}, Choices: cfg.Choices,
		Stickiness: cfg.Stickiness, Batch: cfg.Batch, Affinity: cfg.Affinity,
	})
	ph := q.NewHandle(2)
	g := newDlzdGen(o.seed, spec.name, rolePrefill, prefillBatch)
	var items []dlzd.WireItem
	for left := spec.prefill; left > 0; left -= prefillBatch {
		for _, it := range g.items(items, min(left, prefillBatch)) {
			ph.EnqueuePriority(it.Priority, it.Value)
		}
	}
	ph.Close()
	mqh, ch := q.NewHandle(3), mc.NewHandle(4)
	var coreNs [numOps]float64
	var enqItems, deqItems float64
	for i := range dec {
		d := &dec[i]
		t0 := now()
		switch d.op {
		case opEnqueue:
			for _, it := range d.enq.Items {
				mqh.EnqueuePriority(it.Priority, it.Value)
			}
			enqItems += float64(len(d.enq.Items))
		case opDeleteMin:
			for k := 0; k < d.del.Max; k++ {
				if _, ok := mqh.Dequeue(); !ok {
					break
				}
				deqItems++
			}
		case opCounterAdd:
			for _, v := range d.add.Deltas {
				ch.Add(v)
			}
		}
		coreNs[d.op] += float64(now() - t0)
	}
	mqh.Close()
	ch.Close()
	for op := range coreNs {
		parts.core[op] = coreNs[op] / n[op]
	}
	r.set("core.ns_per_item.enqueue", coreNs[opEnqueue]/enqItems, "%.0f replayed items", enqItems)
	r.set("core.ns_per_item.dequeue", coreNs[opDeleteMin]/deqItems, "%.0f replayed items", deqItems)

	if spec.wal {
		if err := replayWAL(o, r, spec, cfg, dec, &parts, n); err != nil {
			return parts, err
		}
	}
	return parts, replayAllocs(o, r, spec, cfg, recs, dec)
}

// replayWAL appends the journal record each recorded request produces.
func replayWAL(o opts, r *report, spec dlzdSpec, cfg dlzd.Config, dec []decoded, parts *layerParts, n [numOps]float64) error {
	dir := filepath.Join(o.workdir, spec.name+"-replay-wal")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	l, _, err := wal.Open(wal.Options{Dir: dir, Policy: cfg.Durability.Fsync, SegmentBytes: cfg.Durability.SegmentBytes})
	if err != nil {
		return err
	}
	var total float64
	for i := range dec {
		d := &dec[i]
		t0 := now()
		var rec *wal.Record
		switch d.op {
		case opEnqueue:
			rec = &wal.Record{Type: wal.RecEnqueue, Tenant: tenant, Session: d.enq.Session,
				Items: walItems(d.enq.Items), Metered: uint64(len(d.enq.Items))}
		case opDeleteMin:
			rec = &wal.Record{Type: wal.RecDeleteMin, Tenant: tenant, Session: d.del.Session,
				Items: walItems(d.delR.Items), Metered: uint64(d.del.Max)}
		case opCounterAdd:
			var w uint64
			for _, v := range d.add.Deltas {
				w += v
			}
			rec = &wal.Record{Type: wal.RecCounterAdd, Tenant: tenant, Session: d.add.Session,
				Count: uint64(len(d.add.Deltas)), Weight: w, Metered: uint64(len(d.add.Deltas))}
		}
		_, err := l.Append(rec)
		dt := float64(now() - t0)
		if err != nil {
			l.Close()
			return fmt.Errorf("replay append: %w", err)
		}
		parts.wal[d.op] += dt
		total += dt
	}
	if err := l.Close(); err != nil {
		return err
	}
	for op := range parts.wal {
		parts.wal[op] /= n[op]
	}
	r.set("wal.append_us", total/float64(len(dec))/1e3, "mean record conversion plus Log.Append over %d replayed requests", len(dec))
	return os.RemoveAll(dir)
}

func walItems(items []dlzd.WireItem) []wal.Item {
	out := make([]wal.Item, len(items))
	for i, it := range items {
		out[i] = wal.Item{Priority: it.Priority, Value: it.Value}
	}
	return out
}

func httptestGet(h http.Handler, path string) []byte {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Body.Bytes()
}

// replayAllocs counts the allocations of in-process ServeHTTP calls on the
// recorded request bodies. Requests and recorders are built before counting.
func replayAllocs(o opts, r *report, spec dlzdSpec, cfg dlzd.Config, recs []recorded, dec []decoded) error {
	dir := filepath.Join(o.workdir, spec.name+"-replay-srv")
	if spec.wal {
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		cfg.Durability = shippedDurability(dir)
		// Runs after srv.Close; a leftover directory is removed by the next
		// run, so its error changes nothing here.
		defer os.RemoveAll(dir)
	}
	srv := dlzd.New(cfg)
	defer srv.Close()
	if _, err := srv.Recover(); err != nil {
		return err
	}
	serve := func(path string, body []byte) error {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/"+tenant+"/"+path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("replay %s: %d %s", path, rec.Code, rec.Body.String())
		}
		return nil
	}
	// The wire types always marshal, so the Marshal errors below are nil.
	g := newDlzdGen(o.seed, spec.name, rolePrefill, prefillBatch)
	var items []dlzd.WireItem
	for left := spec.prefill; left > 0; left -= prefillBatch {
		items = g.items(items, min(left, prefillBatch))
		body, _ := json.Marshal(dlzd.EnqueueBatchRequest{Session: "prefill", Items: items})
		if err := serve("enqueue-batch", body); err != nil {
			return err
		}
	}
	body, _ := json.Marshal(dlzd.SessionCloseRequest{Session: "prefill"})
	if err := serve("session/close", body); err != nil {
		return err
	}

	var bytesTotal, itemsTotal float64
	var ms0, ms1 runtime.MemStats
	for op := opKind(0); op < numOps; op++ {
		var reqs []*http.Request
		var outs []*httptest.ResponseRecorder
		for i, rc := range recs {
			if rc.op != op || len(reqs) == allocReplayReqs {
				continue
			}
			reqs = append(reqs, httptest.NewRequest(http.MethodPost, "/v1/"+tenant+"/"+opPaths[op], bytes.NewReader(rc.req)))
			outs = append(outs, httptest.NewRecorder())
			switch op {
			case opEnqueue:
				itemsTotal += float64(len(dec[i].enq.Items))
			case opDeleteMin:
				itemsTotal += float64(len(dec[i].delR.Items))
			case opCounterAdd:
				itemsTotal += float64(len(dec[i].add.Deltas))
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		for i, req := range reqs {
			srv.ServeHTTP(outs[i], req)
		}
		runtime.ReadMemStats(&ms1)
		for _, out := range outs {
			if out.Code != http.StatusOK {
				return fmt.Errorf("replay %s: %d %s", opPaths[op], out.Code, out.Body.String())
			}
		}
		r.set("dlzd.allocs_per_req."+opNames[op], float64(ms1.Mallocs-ms0.Mallocs)/float64(len(reqs)),
			"in-process ServeHTTP over %d replayed requests", len(reqs))
		bytesTotal += float64(ms1.TotalAlloc - ms0.TotalAlloc)
	}
	r.set("dlzd.alloc_bytes_per_item", bytesTotal/itemsTotal, "%.0f bytes allocated by ServeHTTP over %.0f replayed items", bytesTotal, itemsTotal)
	return nil
}

// attribute joins client and server spans and splits dlzd.serve into the
// replayed layer parts plus what no replay accounts for.
func attribute(r *report, spans []span, parts layerParts, dials int64) {
	var (
		rt, outside, serveAll []float64
		serveByOp             [numOps][]float64
		sumRT, sumServe       float64
	)
	forEachSelf(spans, func(s span, self int64) {
		d := float64(s.end - s.start)
		switch s.name {
		case spRoundtrip:
			rt = append(rt, d)
			outside = append(outside, float64(self))
			sumRT += d
		case spServe:
			serveByOp[opOf(s.id)] = append(serveByOp[opOf(s.id)], d)
			serveAll = append(serveAll, d)
			sumServe += d
		}
	})
	rtd, od := summarize(rt), summarize(outside)
	r.set("http.roundtrip_p50_us", rtd.P50/1e3, "%s (ns)", rtd)
	r.set("http.outside_serve_p50_us", od.P50/1e3, "round trip minus its dlzd.serve span; %s (ns)", od)
	r.set("http.serve_share", sumServe/sumRT, "dlzd.serve %.1fms of http.roundtrip %.1fms (base: round trip)", sumServe/1e6, sumRT/1e6)
	r.set("http.conns_dialed", float64(dials), "by the %d workload clients over the whole run", clients)

	var wire, core, walNs float64
	for op := range serveByOp {
		d := summarize(serveByOp[op])
		r.set("dlzd.serve_p50_us."+opNames[op], d.P50/1e3, "%s (ns)", d)
		k := float64(d.N)
		wire += k * parts.wire[op]
		core += k * parts.core[op]
		walNs += k * parts.wal[op]
	}
	all := summarize(serveAll)
	r.set("dlzd.serve_p99_us", all.at(99)/1e3, "n=%d, %d beyond p99; rule tail p%g=%.4gus", all.N, beyond(99, all.N), all.TailPct, all.Tail/1e3)
	nreq := float64(all.N)
	r.set("dlzd.serve_mean_us", sumServe/nreq/1e3, "over %d traced requests; base of the *.share_of_serve ratios", all.N)
	r.set("wire.share_of_serve", wire/sumServe, "replayed decode+encode %.1fms of serve %.1fms", wire/1e6, sumServe/1e6)
	r.set("core.share_of_serve", core/sumServe, "replayed handle calls %.1fms of serve %.1fms", core/1e6, sumServe/1e6)
	r.set("wal.share_of_serve", walNs/sumServe, "replayed appends %.1fms of serve %.1fms", walNs/1e6, sumServe/1e6)
	un := (sumServe - wire - core - walNs) / nreq / 1e3
	r.set("dlzd.unattributed_us", un, "serve mean minus the replayed wire, core and wal parts")
	fmt.Printf("accounting dlzd.serve mean %.3fus = wire %.3f + core %.3f + wal %.3f + unattributed %.3f (us per traced request, n=%d)\n",
		sumServe/nreq/1e3, wire/nreq/1e3, core/nreq/1e3, walNs/nreq/1e3, un, all.N)
}
