package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/dlz"
	"repro/dlzd"
	"repro/internal/wal"
)

// dlzdSpec is what separates the two daemon workloads.
type dlzdSpec struct {
	name    string
	batch   int // items per enqueue request, max per dequeue, deltas per counter add
	prefill int
	wal     bool
	rounds  int // without durability; with it, see dlzdRounds
}

var (
	// 16 Ki elements fit in L2: per-request cost dominates.
	b1Spec = dlzdSpec{name: "dlzd-b1", batch: 1, prefill: 1 << 14, rounds: defaultRounds}
	// 1 Mi elements are 16 MiB of items: per-item cost dominates.
	b1024Spec = dlzdSpec{name: "dlzd-b1024-wal", batch: 1024, prefill: 1 << 20, wal: true}
)

const (
	tenant       = "bench"
	prefillBatch = 4096
	reqIDHeader  = "X-Bench-Request-Id"
)

var opPaths = [numOps]string{"enqueue-batch", "delete-min-up-to", "counter/add-batch"}

// shipped is cmd/dlzd's default configuration (its flag defaults).
func shipped() dlzd.Config {
	return dlzd.Config{
		Queues:      64,
		Backing:     dlz.BackingBinary,
		Capacity:    1024,
		Choices:     2,
		Stickiness:  16,
		Batch:       8,
		Affinity:    0.5,
		MaxTenants:  64,
		MaxInFlight: 256,
		IdleTimeout: 30 * time.Second,
		ShedHold:    100 * time.Millisecond,
		Seed:        1,
	}
}

// shippedDurability is cmd/dlzd's journal configuration under -wal-dir
// with its default flags.
func shippedDurability(dir string) *dlzd.Durability {
	return &dlzd.Durability{
		Dir:           dir,
		Fsync:         wal.FsyncNever,
		FsyncInterval: 100 * time.Millisecond,
		SegmentBytes:  4 << 20,
		SnapshotBytes: 64 << 20,
	}
}

// serveTracer records the dlzd.serve span of every request that carries a
// request id.
type serveTracer struct {
	h   http.Handler
	mu  sync.Mutex
	log *spanLog
}

func (t *serveTracer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	v := r.Header.Get(reqIDHeader)
	if v == "" {
		t.h.ServeHTTP(w, r)
		return
	}
	id, _ := strconv.ParseUint(v, 10, 64)
	t0 := now()
	t.h.ServeHTTP(w, r)
	t1 := now()
	t.mu.Lock()
	t.log.add(span{id, spServe, spRoundtrip, t0, t1})
	t.mu.Unlock()
}

// daemon is one built dlzd workload: a Server behind a loopback
// http.Server, prefilled, with one connection and one session per client.
type daemon struct {
	cfg         dlzd.Config
	srv         *dlzd.Server
	hs          *http.Server
	serveErr    chan error
	stopJanitor func()
	janitorAt   time.Time // when StartJanitor was called
	base        string
	tracer      *serveTracer
	admin       *http.Client
	clients     [clients]*http.Client
	dials       atomic.Int64
}

func newDaemon(o opts, spec dlzdSpec, walDir string) (*daemon, error) {
	d := &daemon{cfg: shipped(), serveErr: make(chan error, 1)}
	if spec.wal {
		if err := os.RemoveAll(walDir); err != nil {
			return nil, err
		}
		d.cfg.Durability = shippedDurability(walDir)
	}
	d.srv = dlzd.New(d.cfg)
	var h http.Handler = d.srv
	if o.trace {
		d.tracer = &serveTracer{h: d.srv, log: newSpanLog(1 << 21)}
		h = d.tracer
	}
	// The http.Server limits are cmd/dlzd's defaults.
	d.hs = &http.Server{
		Handler:           h,
		ReadTimeout:       30 * time.Second,
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      30 * time.Second,
		MaxHeaderBytes:    1 << 20,
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go func() { d.serveErr <- d.hs.Serve(ln) }()
	d.base = "http://" + ln.Addr().String() + "/v1/" + tenant + "/"
	if _, err := d.srv.Recover(); err != nil {
		d.close()
		return nil, fmt.Errorf("recover: %w", err)
	}
	d.janitorAt = time.Now()
	d.stopJanitor = d.srv.StartJanitor(0) // as cmd/dlzd runs it
	d.admin = &http.Client{Transport: &http.Transport{DisableCompression: true}}
	for c := range d.clients {
		dialer := &net.Dialer{}
		d.clients[c] = &http.Client{Transport: &http.Transport{
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				d.dials.Add(1)
				return dialer.DialContext(ctx, network, addr)
			},
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}}
	}

	g := newDlzdGen(o.seed, spec.name, rolePrefill, prefillBatch)
	var items []dlzd.WireItem
	for left := spec.prefill; left > 0; left -= prefillBatch {
		items = g.items(items, min(left, prefillBatch))
		if err := d.post(d.admin, "enqueue-batch", dlzd.EnqueueBatchRequest{Session: "prefill", Items: items}, nil); err != nil {
			d.close()
			return nil, fmt.Errorf("prefill: %w", err)
		}
	}
	if err := d.post(d.admin, "session/close", dlzd.SessionCloseRequest{Session: "prefill"}, nil); err != nil {
		d.close()
		return nil, err
	}
	// Each client dials its connection and opens its session lease now, so
	// the measured window starts warm.
	for c, cl := range d.clients {
		resp, err := cl.Get(d.base + "counter/read?session=" + session(c))
		if err != nil {
			d.close()
			return nil, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	return d, nil
}

func session(c int) string { return "client-" + strconv.Itoa(c) }

// janitorEvery is the janitor's tick under StartJanitor(0): a quarter of
// the idle timeout. With durability on, a tick snapshots the journal once
// it has grown Durability.SnapshotBytes since the last snapshot, which at
// this workload's rate it has by every tick.
func janitorEvery(cfg dlzd.Config) time.Duration { return cfg.IdleTimeout / 4 }

// dlzdRounds is how many builds an untraced run measures. With durability
// on, the janitor's snapshots are part of the cost, so there is one round
// per janitor tick that fits in --seconds: each window is at most a tick
// long and starts half a tick after one (see janitorPhase), so it holds
// exactly one tick and one snapshot. A 20s run measures three windows of
// 6.67s, each with its tick 3.75s in.
func dlzdRounds(spec dlzdSpec, cfg dlzd.Config, seconds float64) int {
	if !spec.wal {
		return spec.rounds
	}
	return int(math.Ceil(seconds / janitorEvery(cfg).Seconds()))
}

// janitorPhase returns the first time from now on that lies the given
// share of a tick after one of the janitor's ticks. A window that starts
// there holds the same ticks in every run. An untraced round starts half a
// tick after one. A traced run starts a sixth of a tick after one, so that
// its 5s windows get the ticks at 6.25s (traced) and 13.75s (untraced),
// one snapshot in each mode, and trace_overhead_frac compares like with
// like.
func (d *daemon) janitorPhase(share float64) time.Time {
	every := janitorEvery(d.cfg)
	t := d.janitorAt.Add(time.Duration(share * float64(every)))
	for t.Before(time.Now()) {
		t = t.Add(every)
	}
	return t
}

// post sends one admin request and decodes a 200 response into out.
func (d *daemon) post(cl *http.Client, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := cl.Post(d.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s: %s", path, resp.Status, strings.TrimSpace(string(b)))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(b, out)
}

func (d *daemon) get(path string, out any) error {
	resp, err := d.admin.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// scrape reads the unlabelled series of GET /metrics.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := d.admin.Get(strings.TrimSuffix(d.base, "v1/"+tenant+"/") + "metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		if k, v, ok := strings.Cut(line, " "); ok {
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				m[k] = f
			}
		}
	}
	return m, sc.Err()
}

// close stops the HTTP side, the janitor and the server; with durability
// on, Server.Close writes the final snapshot and seals the journal.
func (d *daemon) close() {
	for _, cl := range append(d.clients[:], d.admin) {
		if cl != nil {
			cl.CloseIdleConnections()
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.hs.Shutdown(ctx) // also closes the listener
	<-d.serveErr
	if d.stopJanitor != nil {
		d.stopJanitor()
	}
	d.srv.Close()
}

// seenSet marks dequeued values, one bit per (source, sequence number),
// with pages allocated as sources advance.
type seenSet struct {
	pages [clients + 1][maxSeenPages]atomic.Pointer[seenPage]
	sent  [clients + 1]atomic.Uint64 // values each source has sent so far
}

const (
	seenPageBits = 20
	maxSeenPages = 1 << 12 // 2^32 values per source
)

type seenPage [1 << (seenPageBits - 6)]atomic.Uint64

// mark records a dequeued value and returns why it is wrong, or "".
func (s *seenSet) mark(v uint64) string {
	src, seq := splitValue(v)
	if src > clients || seq >= s.sent[src].Load() {
		return fmt.Sprintf("value %#x was never enqueued", v)
	}
	slot := &s.pages[src][seq>>seenPageBits]
	p := slot.Load()
	if p == nil {
		slot.CompareAndSwap(nil, new(seenPage))
		p = slot.Load()
	}
	off := seq & (1<<seenPageBits - 1)
	w, bit := &p[off>>6], uint64(1)<<(off&63)
	for {
		old := w.Load()
		if old&bit != 0 {
			return fmt.Sprintf("value %#x dequeued twice", v)
		}
		if w.CompareAndSwap(old, old|bit) {
			return ""
		}
	}
}

// recorded is one traced request kept for the replay pass.
type recorded struct {
	op        opKind
	req, resp []byte
}

// A client keeps at most maxRecordedReqs traced requests of each kind for
// the replay pass, and stops earlier at maxRecordedItems items of a kind.
const (
	maxRecordedReqs  = 4096
	maxRecordedItems = 1 << 18
)

type dlzdClient struct {
	m                 *meter // units are acknowledged items
	attempted, failed uint64
	enqueued          uint64 // acknowledged items by kind, all windows
	dequeued          uint64
	deltaSum          uint64
	reqBytes          [numOps]uint64 // traced windows
	respBytes         [numOps]uint64
	items             [numOps]uint64
	log               *spanLog
	rec               []recorded
	recReqs, recItems [numOps]int
	problems          []string
}

func (cl *dlzdClient) problem(s string) {
	cl.failed++
	if len(cl.problems) < 5 {
		cl.problems = append(cl.problems, s)
	}
}

func reqID(c int, op opKind, n uint64) uint64 { return uint64(c)<<56 | uint64(op)<<52 | n }

func opOf(id uint64) opKind { return opKind(id >> 52 & 0xf) }

func runClient(o opts, spec dlzdSpec, d *daemon, seen *seenSet, p *phaser, c int, cl *dlzdClient) {
	g := newDlzdGen(o.seed, spec.name, uint64(c), spec.batch)
	hc := d.clients[c]
	sess := session(c)
	var (
		items  []dlzd.WireItem
		deltas []uint64
		resp   bytes.Buffer
	)
	for n := uint64(0); !p.stop.Load(); n++ {
		ph := p.phase.Load()
		traced := p.traced(ph)
		op := g.op()
		id := reqID(c, op, n)
		t0 := now()
		var in any
		switch op {
		case opEnqueue:
			items = g.items(items, spec.batch)
			in = dlzd.EnqueueBatchRequest{Session: sess, Items: items}
		case opDeleteMin:
			in = dlzd.DeleteMinRequest{Session: sess, Max: spec.batch}
		case opCounterAdd:
			deltas = g.deltas(deltas)
			in = dlzd.CounterAddRequest{Session: sess, Deltas: deltas}
		}
		body, err := json.Marshal(in)
		if err != nil {
			panic(err) // the wire types always marshal
		}
		if op == opEnqueue {
			seen.sent[c+1].Store(g.seq)
		}
		t1 := now()
		req, err := http.NewRequest(http.MethodPost, d.base+opPaths[op], bytes.NewReader(body))
		if err != nil {
			panic(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if traced {
			req.Header.Set(reqIDHeader, strconv.FormatUint(id, 10))
		}
		cl.attempted++
		t2 := now()
		res, err := hc.Do(req)
		resp.Reset()
		if err == nil {
			_, err = resp.ReadFrom(res.Body)
			res.Body.Close()
		}
		t3 := now()
		if err != nil {
			cl.problem(fmt.Sprintf("%s: %v", opPaths[op], err))
			continue
		}
		if res.StatusCode != http.StatusOK {
			cl.problem(fmt.Sprintf("%s: %s: %s", opPaths[op], res.Status, strings.TrimSpace(resp.String())))
			continue
		}
		var acked uint64
		switch op {
		case opEnqueue:
			var out dlzd.EnqueueBatchResponse
			err = json.Unmarshal(resp.Bytes(), &out)
			if err == nil && out.Enqueued != len(items) {
				err = fmt.Errorf("enqueued %d of %d", out.Enqueued, len(items))
			}
			acked = uint64(out.Enqueued)
			cl.enqueued += acked
		case opDeleteMin:
			var out dlzd.DeleteMinResponse
			err = json.Unmarshal(resp.Bytes(), &out)
			for _, it := range out.Items {
				if msg := seen.mark(it.Value); msg != "" {
					cl.problem(msg)
				}
			}
			acked = uint64(len(out.Items))
			cl.dequeued += acked
		case opCounterAdd:
			var out dlzd.CounterAddResponse
			err = json.Unmarshal(resp.Bytes(), &out)
			if err == nil && out.Added != len(deltas) {
				err = fmt.Errorf("added %d of %d", out.Added, len(deltas))
			}
			for _, v := range deltas {
				cl.deltaSum += v
			}
			acked = uint64(len(deltas))
		}
		t4 := now()
		if err != nil {
			cl.problem(fmt.Sprintf("%s response: %v", opPaths[op], err))
			continue
		}
		if ph == warmUp {
			continue
		}
		cl.m.units[ph] += float64(acked)
		if !traced {
			cl.m.mid = append(cl.m.mid, float64(t3-t2))
			cl.m.tail = append(cl.m.tail, float64(t3-t2))
			continue
		}
		cl.reqBytes[op] += uint64(len(body))
		cl.respBytes[op] += uint64(resp.Len())
		cl.items[op] += acked
		cl.log.add(span{id, spClientRequest, noParent, t0, t4})
		cl.log.add(span{id, spClientEncode, spClientRequest, t0, t1})
		cl.log.add(span{id, spRoundtrip, spClientRequest, t2, t3})
		cl.log.add(span{id, spClientDecode, spClientRequest, t3, t4})
		if cl.recReqs[op] < maxRecordedReqs && cl.recItems[op] < maxRecordedItems {
			cl.rec = append(cl.rec, recorded{op, body, bytes.Clone(resp.Bytes())})
			cl.recReqs[op]++
			cl.recItems[op] += int(acked)
		}
	}
}

// journalFS names the filesystem holding dir.
func journalFS(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x794c7630: "overlayfs", 0x01021994: "tmpfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x2fc12fc1: "zfs", 0x6969: "nfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

func runDlzd(o opts, r *report, spec dlzdSpec) error {
	walDir := filepath.Join(o.workdir, spec.name+"-wal")
	cfg := shipped()
	r.env = append(r.env, fmt.Sprintf("daemon_config m=%d backing=%s d=%d s=%d k=%d affinity=%g max_inflight=%d idle_timeout=%s janitor=StartJanitor(0)",
		cfg.Queues, cfg.Backing, cfg.Choices, cfg.Stickiness, cfg.Batch, cfg.Affinity, cfg.MaxInFlight, cfg.IdleTimeout))
	if spec.wal {
		if err := os.MkdirAll(walDir, 0o755); err != nil {
			return err
		}
		d := shippedDurability(walDir)
		r.env = append(r.env, fmt.Sprintf("durability fsync=%s segment_bytes=%d snapshot_bytes=%d journal_fs=%s",
			d.Fsync, d.SegmentBytes, d.SnapshotBytes, journalFS(walDir)))
	} else {
		r.env = append(r.env, "durability off")
	}
	r.env = append(r.env, fmt.Sprintf("load clients=%d closed-loop batch=%d prefill=%d mix=40%% enqueue-batch/40%% delete-min-up-to/20%% counter/add-batch priorities=zipf(%.1f, 2^20)",
		clients, spec.batch, spec.prefill, zipfTheta))

	build := func() (*daemon, error) { return newDaemon(o, spec, walDir) }
	var snapshots []float64
	round := func(d *daemon, p *phaser, seconds float64, rd roundID) ([]*meter, error) {
		ms, n, err := dlzdRound(o, r, spec, d, walDir, p, seconds, rd)
		snapshots = append(snapshots, n)
		return ms, err
	}
	res, err := measureRounds(o, r, dlzdRounds(spec, cfg, o.seconds), fmt.Sprintf("Server, loopback listener, Recover, janitor, %d-element prefill over HTTP, %d client connections and sessions",
		spec.prefill, clients), build, (*daemon).close, round)
	if err != nil || o.trace {
		return err
	}
	req := "one request, send to response body read"
	setRounds(r, res, "acknowledged enqueued, dequeued and counter-delta items per second", req, req, 1e3)
	if spec.wal {
		r.notes["throughput_per_s"] += "; janitor snapshots per round " + list(snapshots)
	}
	rankAudit(r, o.seed)
	return nil
}

// dlzdRound measures one built daemon, checks it, and closes it. It
// returns the number of janitor snapshots taken in the measured window.
// With durability on, the clients warm up until janitorPhase, so that every
// run's window holds the same janitor ticks, and so that the journal has
// grown past the snapshot threshold by the first of them.
func dlzdRound(o opts, r *report, spec dlzdSpec, d *daemon, walDir string, p *phaser, seconds float64, rd roundID) ([]*meter, float64, error) {
	cfg := d.cfg
	seen := &seenSet{}
	seen.sent[0].Store(uint64(spec.prefill))
	var start time.Time
	if spec.wal {
		share := 0.5
		if o.trace {
			share = 1.0 / 6
		}
		start = d.janitorPhase(share)
	}
	p.phase.Store(warmUp)
	var (
		wg     sync.WaitGroup
		cls    [clients]*dlzdClient
		meters []*meter
	)
	for c := range cls {
		cl := &dlzdClient{m: newMeter(p, 1<<16)}
		if o.trace {
			cl.log = newSpanLog(1 << 21)
		}
		cls[c] = cl
		meters = append(meters, cl.m)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			runClient(o, spec, d, seen, p, c, cls[c])
		}(c)
	}
	time.Sleep(time.Until(start))
	before, err := d.scrape()
	if err != nil {
		p.stop.Store(true)
		wg.Wait()
		d.close()
		return nil, 0, err
	}
	p.drive(seconds, nil)
	wg.Wait()
	after, err := d.scrape()
	if err != nil {
		d.close()
		return nil, 0, err
	}

	var tot dlzdClient
	for _, cl := range cls {
		tot.attempted += cl.attempted
		tot.failed += cl.failed
		tot.enqueued += cl.enqueued
		tot.dequeued += cl.dequeued
		tot.deltaSum += cl.deltaSum
		for op := range tot.reqBytes {
			tot.reqBytes[op] += cl.reqBytes[op]
			tot.respBytes[op] += cl.respBytes[op]
			tot.items[op] += cl.items[op]
		}
		tot.rec = append(tot.rec, cl.rec...)
		for _, s := range cl.problems {
			fmt.Println("problem:", s)
		}
	}
	r.attempted += tot.attempted
	r.failed += tot.failed
	r.check("values", tot.failed == 0, "%s: %d dequeued values each enqueued before and dequeued once; %d failed requests or values",
		rd, tot.dequeued, tot.failed)

	// Conservation, after every session is closed.
	for c := range d.clients {
		var out dlzd.SessionCloseResponse
		if err := d.post(d.admin, "session/close", dlzd.SessionCloseRequest{Session: session(c)}, &out); err != nil {
			d.close()
			return nil, 0, err
		}
	}
	var st dlzd.StatsResponse
	if err := d.get("stats", &st); err != nil {
		d.close()
		return nil, 0, err
	}
	wantLen := uint64(spec.prefill) + tot.enqueued - tot.dequeued
	r.check("conservation", uint64(st.QueueLen) == wantLen && st.CounterExact == tot.deltaSum &&
		st.Invalidations == st.Reclaimed && st.Leases == 0 &&
		st.OpsEnqueued == uint64(spec.prefill)+tot.enqueued && st.OpsDequeued == tot.dequeued,
		"%s: queue_len %d = prefill %d + enqueued %d - dequeued %d = %d; counter_exact %d = acked deltas %d; invalidations %d = reclaimed %d; leases %d",
		rd, st.QueueLen, spec.prefill, tot.enqueued, tot.dequeued, wantLen, st.CounterExact, tot.deltaSum,
		st.Invalidations, st.Reclaimed, st.Leases)

	var snapshotMs float64
	if o.trace && spec.wal {
		t0 := time.Now()
		if err := d.srv.Snapshot(); err != nil {
			d.close()
			return nil, 0, fmt.Errorf("snapshot: %w", err)
		}
		snapshotMs = float64(time.Since(t0)) / 1e6
	}
	var serveSpans []span
	if d.tracer != nil {
		d.tracer.mu.Lock()
		serveSpans = d.tracer.log.spans
		d.tracer.mu.Unlock()
	}
	d.close()
	var recoverMs float64
	if spec.wal && rd.last() {
		ms, err := checkRecovery(r, cfg, st, rd)
		if err != nil {
			return nil, 0, err
		}
		recoverMs = ms
	}
	if spec.wal {
		if err := os.RemoveAll(walDir); err != nil {
			return nil, 0, err
		}
	}

	snapshots := after["dlzd_snapshots_total"] - before["dlzd_snapshots_total"]
	if !o.trace {
		return meters, snapshots, nil
	}

	frac, u, t := p.overhead(meters)
	r.set("trace_overhead_frac", frac, "items/s untraced %.0f vs traced %.0f (base: untraced)", u, t)
	delta := func(k string) float64 { return after[k] - before[k] }
	r.set("dlzd.leases_opened", delta("dlzd_leases_opened_total"), "during the measured window")
	r.set("dlzd.rejected", delta("dlzd_rejected_inflight_total")+delta("dlzd_rejected_quota_total")+
		delta("dlzd_rejected_shed_total")+delta("dlzd_rejected_busy_total"), "in-flight, quota, shed and busy rejections during the window")
	if spec.wal {
		items := delta("dlzd_ops_enqueued_total") + delta("dlzd_ops_dequeued_total") + delta("dlzd_ops_counter_adds_total")
		r.set("wal.bytes_per_item", delta("dlzd_wal_bytes_total")/items, "%.0f journal bytes over %.0f items", delta("dlzd_wal_bytes_total"), items)
		r.set("wal.fsyncs", delta("dlzd_wal_fsyncs_total"), "during the window (fsync=never)")
		r.set("wal.snapshots", snapshots, "janitor snapshots during the window, every %s", janitorEvery(cfg))
		r.set("wal.snapshot_ms", snapshotMs, "one Server.Snapshot at the end of the window")
		r.set("wal.recover_ms", recoverMs, "Server.Recover of the closed journal")
	}
	var items [numOps]float64
	for op := range items {
		items[op] = float64(tot.items[op])
	}
	allItems := items[0] + items[1] + items[2]
	var reqBytes, respBytes float64
	for op := range items {
		reqBytes += float64(tot.reqBytes[op])
		respBytes += float64(tot.respBytes[op])
	}
	r.set("dlzd.req_bytes_per_item", reqBytes/allItems, "%.0f request body bytes over %.0f acknowledged items", reqBytes, allItems)
	r.set("dlzd.resp_bytes_per_item", respBytes/allItems, "%.0f response body bytes over %.0f acknowledged items", respBytes, allItems)

	var spans []span
	dropped := 0
	for _, cl := range cls {
		spans = append(spans, cl.log.spans...)
		dropped += cl.log.dropped
	}
	spans = append(spans, serveSpans...)
	dropped += d.tracer.log.dropped
	parts, err := replay(o, r, spec, cfg, tot.rec)
	if err != nil {
		return nil, 0, err
	}
	attribute(r, spans, parts, d.dials.Load())
	return meters, snapshots, writeSpans(o, spec.name, spans, dropped)
}

// checkRecovery boots a fresh server on the closed journal and checks that
// it reproduces the final queue length and counter. It returns the
// recovery time in milliseconds.
func checkRecovery(r *report, cfg dlzd.Config, final dlzd.StatsResponse, rd roundID) (float64, error) {
	srv := dlzd.New(cfg)
	t0 := time.Now()
	rs, err := srv.Recover()
	if err != nil {
		return 0, fmt.Errorf("recover: %w", err)
	}
	ms := float64(time.Since(t0)) / 1e6
	rec := httptestGet(srv, "/v1/"+tenant+"/stats")
	var st dlzd.StatsResponse
	if err := json.Unmarshal(rec, &st); err != nil {
		srv.Close()
		return 0, fmt.Errorf("recovered stats: %w", err)
	}
	srv.Close()
	r.check("recovery", st.QueueLen == final.QueueLen && st.CounterExact == final.CounterExact,
		"%s: recovered queue_len %d counter_exact %d, final %d and %d (%d records replayed in %.1fms)",
		rd, st.QueueLen, st.CounterExact, final.QueueLen, final.CounterExact, rs.Records, ms)
	return ms, nil
}
