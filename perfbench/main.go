// Command perfbench is the repository's benchmark: four workloads against
// the public entry points of the dlzd daemon, the core MultiQueue and the
// TL2 relaxed clock. Each run generates its inputs from --seed, measures for
// --seconds, checks the program's outputs, and prints one JSON result as its
// last line of standard output. With --trace 0 the result carries the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
// traced run, whose spans are written under --workdir. README.md explains
// the workloads and the metrics.
//
// Run it through run.py, which builds this package first:
//
//	python3 perfbench/run.py --workload dlzd-b1 --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// clients is the number of client goroutines of every workload, matching
// the two CPUs of the machine the benchmark was sized on.
const clients = 2

type metricDef struct{ name, unit string }

// e2eMetrics are the end-to-end metrics every untraced run reports. They
// are defined per workload by its primary unit of work: an acknowledged
// item for the daemon workloads, a handle operation for core-mq, a
// committed transaction for tl2-mcclock (see README.md).
var e2eMetrics = []metricDef{
	{"throughput_per_s", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"relax_error_mean", "count"},
	{"setup_s", "s"},
	{"rss_mb", "MB"},
}

// layerMetrics are the per-layer metrics every traced run reports. A layer
// a workload does not pass through reports 0.
var layerMetrics = []metricDef{
	{"http.roundtrip_p50_us", "us"},
	{"http.outside_serve_p50_us", "us"},
	{"http.serve_share", "frac"},
	{"http.conns_dialed", "count"},
	{"wire.decode_us.enqueue", "us"},
	{"wire.decode_us.counter_add", "us"},
	{"wire.encode_us.delete_min", "us"},
	{"wire.share_of_serve", "frac"},
	{"dlzd.req_bytes_per_item", "B"},
	{"dlzd.resp_bytes_per_item", "B"},
	{"dlzd.serve_mean_us", "us"},
	{"dlzd.serve_p50_us.enqueue", "us"},
	{"dlzd.serve_p50_us.delete_min", "us"},
	{"dlzd.serve_p50_us.counter_add", "us"},
	{"dlzd.serve_p99_us", "us"},
	{"dlzd.allocs_per_req.enqueue", "count"},
	{"dlzd.allocs_per_req.delete_min", "count"},
	{"dlzd.allocs_per_req.counter_add", "count"},
	{"dlzd.alloc_bytes_per_item", "B"},
	{"dlzd.unattributed_us", "us"},
	{"dlzd.leases_opened", "count"},
	{"dlzd.rejected", "count"},
	{"core.ns_per_item.enqueue", "ns"},
	{"core.ns_per_item.dequeue", "ns"},
	{"core.share_of_serve", "frac"},
	{"core.enqueue_ns_p50", "ns"},
	{"core.dequeue_ns_p50", "ns"},
	{"core.lock_contended_per_kop", "1/kop"},
	{"core.elision_ratio", "frac"},
	{"core.rerolls_per_kdequeue", "1/kdequeue"},
	{"core.empty_dequeues", "count"},
	{"core.allocs_per_op", "count"},
	{"wal.append_us", "us"},
	{"wal.bytes_per_item", "B"},
	{"wal.fsyncs", "count"},
	{"wal.snapshots", "count"},
	{"wal.snapshot_ms", "ms"},
	{"wal.recover_ms", "ms"},
	{"wal.share_of_serve", "frac"},
	{"stm.tx_ns_p50", "ns"},
	{"stm.abort_frac", "frac"},
	{"stm.aborts.read-locked", "count"},
	{"stm.aborts.read-version", "count"},
	{"stm.aborts.read-race", "count"},
	{"stm.aborts.write-locked", "count"},
	{"stm.aborts.validation", "count"},
	{"clock.sample_ns_p50", "ns"},
	{"clock.commit_version_ns_p50", "ns"},
	{"clock.share_of_tx", "frac"},
	{"clock.help_per_kcommit", "1/kcommit"},
	{"trace_overhead_frac", "frac"},
}

type opts struct {
	seed    uint64
	seconds float64
	trace   bool
	workdir string
}

type workload struct {
	name, why string
	digest    func(seed uint64, put func(...uint64))
	run       func(o opts, r *report) error
}

var workloads = []*workload{
	{
		name:   "dlzd-b1",
		why:    "1-item requests over loopback: transport, dispatch, lease and small-body codec cost per request; WAL off",
		digest: digestDlzd("dlzd-b1", b1Spec.prefill, b1Spec.batch),
		run:    func(o opts, r *report) error { return runDlzd(o, r, b1Spec) },
	},
	{
		name:   "dlzd-b1024-wal",
		why:    "1024-item requests with the journal on: JSON codec, bulk core path, journal appends and snapshots per item",
		digest: digestDlzd("dlzd-b1024-wal", b1024Spec.prefill, b1024Spec.batch),
		run:    func(o opts, r *report) error { return runDlzd(o, r, b1024Spec) },
	},
	{
		name:   "core-mq",
		why:    "two MQHandles on a 64 MiB MultiQueue with no daemon in front: the core, cpq and heap do nearly all the work",
		digest: digestCoreMQ,
		run:    runCoreMQ,
	},
	{
		name:   "tl2-mcclock",
		why:    "TL2 increments on 100,000 slots with the MultiCounter clock, the only workload with the MultiCounter on the critical path",
		digest: digestTL2,
		run:    runTL2,
	},
}

// report collects one run's verdicts and metrics.
type report struct {
	attempted, failed uint64
	checks            []string
	env               []string
	metrics           map[string]float64
	notes             map[string]string
}

func newReport() *report {
	return &report{metrics: map[string]float64{}, notes: map[string]string{}}
}

// set records a metric with the note printed beside it: its sample count,
// and for a ratio its base.
func (r *report) set(name string, v float64, note string, args ...any) {
	r.metrics[name] = v
	if note != "" {
		r.notes[name] = fmt.Sprintf(note, args...)
	}
}

// check records a correctness verdict; a failed check fails the run and
// counts as a failed operation.
func (r *report) check(name string, ok bool, detail string, args ...any) {
	verdict := "PASS"
	if !ok {
		verdict = "FAIL"
		r.failed++
	}
	r.checks = append(r.checks, fmt.Sprintf("check %s %s: %s", verdict, name, fmt.Sprintf(detail, args...)))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTicks reads the machine's stolen and total CPU ticks from /proc/stat;
// both are 0 where it is missing.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 {
		return 0, 0
	}
	for _, s := range f[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
	}
	steal, _ = strconv.ParseUint(f[8], 10, 64)
	return steal, total
}

func main() {
	name := flag.String("workload", "", "workload to run: dlzd-b1, dlzd-b1024-wal, core-mq or tl2-mcclock")
	seed := flag.Uint64("seed", 1, "input generator seed")
	seconds := flag.Float64("seconds", 20, "measured run length in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	workdir := flag.String("workdir", filepath.Join(".bench_build", "perfbench"), "directory for journals and span files")
	flag.Parse()

	var w *workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	o := opts{seed: *seed, seconds: *seconds, trace: *trace == 1, workdir: *workdir}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	r := newReport()
	fmt.Printf("workload %s: %s\n", w.name, w.why)
	fmt.Printf("env nproc=%d gomaxprocs=%d go=%s os=%s/%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, cpuModel())
	fmt.Printf("inputs seed=%d digest=%s (prefill plus the first %d inputs of each of %d client streams)\n",
		o.seed, inputDigest(w, o.seed), digestOps, clients)
	steal0, total0 := cpuTicks()
	if err := w.run(o, r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	steal1, total1 := cpuTicks()
	r.env = append(r.env, fmt.Sprintf("cpu_steal_frac=%.3f (share of CPU time the host took from this machine during the run)",
		float64(steal1-steal0)/float64(max(total1-total0, 1))))
	for _, e := range r.env {
		fmt.Println("env", e)
	}
	for _, c := range r.checks {
		fmt.Println(c)
	}

	defs := e2eMetrics
	if o.trace {
		defs = layerMetrics
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]jsonMetric{}
	for _, d := range defs {
		v := r.metrics[d.name]
		out[d.name] = jsonMetric{v, d.unit}
		fmt.Printf("metric %-34s %14.6g %-10s %s\n", d.name, v, d.unit, r.notes[d.name])
	}
	for k := range r.metrics {
		if !hasMetric(defs, k) && !(o.trace && hasMetric(e2eMetrics, k)) {
			panic("perfbench: undeclared metric " + k)
		}
	}
	errFrac := 0.0
	if r.attempted > 0 {
		errFrac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("error_frac %g (%d failed of %d attempted)\n", errFrac, r.failed, r.attempted)
	correct := r.failed == 0 && r.attempted > 0
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted uint64                `json:"attempted"`
		Failed    uint64                `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{correct, r.attempted, r.failed, out})
	if err != nil {
		panic(err)
	}
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
}

func hasMetric(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}
