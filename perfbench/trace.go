package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

var epoch = time.Now()

// now is the span clock: monotonic nanoseconds since the process started.
func now() int64 { return int64(time.Since(epoch)) }

// Span names. A span's parent is named, not numbered: within one request id
// a name that is a parent occurs once, so the name identifies the span.
const (
	spClientRequest uint8 = iota
	spClientEncode
	spRoundtrip
	spClientDecode
	spServe
	spCoreEnqueue
	spCoreDequeue
	spTx
	spClockSample
	spClockCommit
	noParent uint8 = 255
)

var spanNames = []string{
	"client.request", "client.encode", "http.roundtrip", "client.decode", "dlzd.serve",
	"core.enqueue", "core.dequeue", "stm.tx", "clock.sample", "clock.commit_version",
}

type span struct {
	id           uint64
	name, parent uint8
	start, end   int64
}

// spanLog is one goroutine's span buffer, allocated up front so recording
// never allocates; spans past its capacity are counted and dropped.
type spanLog struct {
	spans   []span
	dropped int
}

func newSpanLog(capacity int) *spanLog { return &spanLog{spans: make([]span, 0, capacity)} }

func (l *spanLog) add(s span) {
	if len(l.spans) == cap(l.spans) {
		l.dropped++
		return
	}
	l.spans = append(l.spans, s)
}

// forEachSelf calls fn with every span and its self time: its duration
// minus the part of it that its child spans cover. spans is sorted by id.
func forEachSelf(spans []span, fn func(s span, self int64)) {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].id != spans[j].id {
			return spans[i].id < spans[j].id
		}
		return spans[i].start < spans[j].start
	})
	for lo := 0; lo < len(spans); {
		hi := lo
		for hi < len(spans) && spans[hi].id == spans[lo].id {
			hi++
		}
		group := spans[lo:hi]
		for _, s := range group {
			// Children are sorted by start; merge their clipped intervals.
			covered, reach := int64(0), s.start
			for _, c := range group {
				if c.parent != s.name {
					continue
				}
				a, b := max(c.start, reach), min(c.end, s.end)
				if b > a {
					covered += b - a
					reach = b
				}
			}
			fn(s, s.end-s.start-covered)
		}
		lo = hi
	}
}

type selfStat struct {
	n           int
	total, self int64
}

// selfTable aggregates duration and self time by span name.
func selfTable(spans []span) map[string]*selfStat {
	t := map[string]*selfStat{}
	forEachSelf(spans, func(s span, self int64) {
		st := t[spanNames[s.name]]
		if st == nil {
			st = &selfStat{}
			t[spanNames[s.name]] = st
		}
		st.n++
		st.total += s.end - s.start
		st.self += self
	})
	return t
}

// maxSpansWritten bounds the span file; the metrics use every recorded span.
const maxSpansWritten = 50000

// writeSpans writes spans (sorted by id) as JSON lines and prints the self
// time table.
func writeSpans(o opts, workload string, spans []span, dropped int) error {
	tab := selfTable(spans)
	for _, name := range sortedKeys(tab) {
		st := tab[name]
		fmt.Printf("span %-22s n=%-8d mean=%10.3fus self_mean=%10.3fus\n",
			name, st.n, float64(st.total)/float64(st.n)/1e3, float64(st.self)/float64(st.n)/1e3)
	}
	path := filepath.Join(o.workdir, fmt.Sprintf("%s-seed%d.spans.jsonl", workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	n := len(spans)
	if n > maxSpansWritten {
		n = maxSpansWritten
	}
	for _, s := range spans[:n] {
		parent := ""
		if s.parent != noParent {
			parent = spanNames[s.parent]
		}
		fmt.Fprintf(w, `{"id":%d,"name":%q,"parent":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.id, spanNames[s.name], parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("spans recorded=%d dropped=%d written=%d to %s\n", len(spans), dropped, n, path)
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
