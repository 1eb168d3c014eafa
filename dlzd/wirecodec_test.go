package dlzd

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// postRaw POSTs body verbatim and returns the status and response body.
func postRaw(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(out)
}

// TestTrailingDataRejected pins that a body must be exactly one JSON
// object: anything but whitespace after it is a 400 on every POST endpoint,
// and the rejected request applies nothing.
func TestTrailingDataRejected(t *testing.T) {
	_, c := newTestClient(t, Config{Queues: 2, MaxQueues: 4, Batch: 8})
	const trailing = `{"error":"bad request body: trailing data after the JSON object"}` + "\n"
	cases := []struct{ op, body string }{
		{"enqueue-batch", `{"session":"a","items":[{"priority":1,"value":2}]} garbage`},
		{"enqueue-batch", `{"session":"a","items":[{"priority":1,"value":2}]}{"session":"b"}`},
		{"enqueue-batch", `{"session":"a","ITEMS":[{"priority":1,"value":2}]}]`},
		{"delete-min-up-to", `{"session":"a","max":1} 5`},
		{"counter/add-batch", `{"session":"a","deltas":[3]}{}`},
		{"counter/add-batch", "{\"session\":\"a\",\"deltas\":[3]}\n\x00"},
		{"session/close", `{"session":"a"} x`},
		{"resize", `{"m":3}{"m":4}`},
	}
	for _, tc := range cases {
		code, body := postRaw(t, c.srv.URL+"/v1/x/"+tc.op, tc.body)
		if code != http.StatusBadRequest || body != trailing {
			t.Errorf("%s %q: got %d %q, want 400 %q", tc.op, tc.body, code, body, trailing)
		}
	}
	// Whitespace after the object is not trailing data.
	for _, body := range []string{
		"{\"session\":\"a\",\"items\":[{\"priority\":1,\"value\":2}]} \t\r\n",
		"\n{\"session\":\"a\",\"items\":[{\"priority\":1,\"value\":2}],\"Session\":\"a\"}\n",
	} {
		if code, out := postRaw(t, c.srv.URL+"/v1/x/enqueue-batch", body); code != http.StatusOK {
			t.Errorf("%q: got %d %s", body, code, out)
		}
	}
	var st StatsResponse
	if code := c.get("/v1/x/stats", &st); code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	// Only the two accepted enqueues applied anything.
	if st.OpsEnqueued != 2 || st.CounterDeltaSum != 0 || st.CurrentM != 2 {
		t.Errorf("stats after rejected bodies: enqueued %d, delta sum %d, m %d; want 2, 0, 2",
			st.OpsEnqueued, st.CounterDeltaSum, st.CurrentM)
	}
}

// TestOversizedBodyRejected pins the read-error path: a body past the 8 MiB
// limit reaches the reference decoder with the read error after its bytes.
func TestOversizedBodyRejected(t *testing.T) {
	_, c := newTestClient(t, Config{Queues: 2})
	body := `{"session":"a",` + strings.Repeat(" ", 9<<20) + `"items":[{"priority":1,"value":2}]}`
	code, out := postRaw(t, c.srv.URL+"/v1/x/enqueue-batch", body)
	want := `{"error":"bad request body: http: request body too large"}` + "\n"
	if code != http.StatusBadRequest || out != want {
		t.Fatalf("got %d %q, want 400 %q", code, out, want)
	}
}

// TestWirePoolBounded pins the pool discipline: a buffer that grew past a
// MaxWireBatch-sized request is dropped, a smaller one is kept.
func TestWirePoolBounded(t *testing.T) {
	wb := &wireBuf{body: make([]byte, 0, maxPooledBytes+1), out: make([]byte, 0, maxPooledBytes)}
	putWireBuf(wb)
	if wb.body != nil || cap(wb.out) != maxPooledBytes {
		t.Fatalf("after put: body cap %d, out cap %d; want the body dropped and the response kept", cap(wb.body), cap(wb.out))
	}
	var items []WireItem
	for i := 0; i < MaxWireBatch; i++ {
		items = grow(items)
	}
	if cap(items) != MaxWireBatch {
		t.Fatalf("grow to MaxWireBatch items: cap %d", cap(items))
	}
}

// referenceDecode is what every body meant before the fast path: the
// encoding/json decoder with unknown fields disallowed into a fresh struct,
// plus the one-object rule.
func referenceDecode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	var extra any
	if err := dec.Decode(&extra); err != io.EOF {
		return errTrailingData
	}
	return nil
}

// badBody renders the 400 a decode error answers with ("" for success).
func badBody(err error) string {
	if err == nil {
		return ""
	}
	rec := httptest.NewRecorder()
	writeBadBody(rec, err)
	return rec.Body.String()
}

func checkDecode(t *testing.T, body []byte, kind string, got, want any, gotErr, wantErr error) {
	t.Helper()
	if g, w := badBody(gotErr), badBody(wantErr); g != w {
		t.Fatalf("%s %q: 400 body %q, reference %q", kind, body, g, w)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s %q: decoded %#v, reference %#v", kind, body, got, want)
	}
}

// FuzzWireDecode checks the batch decoders against the reference: every
// body, read as each of the three request types, must give the same
// accept/reject, the same decoded struct and the same 400 body. One
// wireBuf serves every input, so stale pooled state would show.
func FuzzWireDecode(f *testing.F) {
	marshal := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		return string(b)
	}
	enq := marshal(EnqueueBatchRequest{Session: "s-1", Items: []WireItem{{1, 2}, {math.MaxUint64, 0}, {1 << 48, 1<<48 - 1}}})
	del := marshal(DeleteMinRequest{Session: "s-1", Max: 1024})
	add := marshal(CounterAddRequest{Session: "s-1", Deltas: []uint64{0, 7, math.MaxUint64}})
	indent := func(v any) string {
		b, err := json.MarshalIndent(v, "\r", "\t ")
		if err != nil {
			f.Fatal(err)
		}
		return string(b)
	}
	seeds := []string{
		enq, del, add,
		" \n" + enq + "\r\n\t",
		indent(EnqueueBatchRequest{Session: "s", Items: []WireItem{{3, 4}}}),
		indent(DeleteMinRequest{Session: "s", Max: 1}),
		indent(CounterAddRequest{Session: "s", Deltas: []uint64{5}}),
		marshal(EnqueueBatchRequest{}), marshal(DeleteMinRequest{}), marshal(CounterAddRequest{}),
		`{}`, `{"items":[]}`, `{"deltas":[]}`, `{"items":[{}]}`, `{"items":[{"value":9}]}`,
		`{"items":[{"priority":1,"value":2,"extra":3}]}`,
		// Case-folded, escaped and duplicate keys, and null.
		`{"ITEMS":[{"priority":1,"value":2}],"session":"a"}`,
		`{"ſession":"a","max":3}`, `{"Session":"a","deltas":[1]}`,
		`{"session":"a","max":3}`, `{"items":[{"PRIORITY":1,"value":2}]}`,
		`{"items":[{"priority":1,"value":2},{"priority":3}],"items":[{"value":9}]}`,
		`{"session":"a","session":"b","max":1}`, `{"deltas":[1],"deltas":[2,3]}`,
		`{"items":[{"priority":1,"priority":2}]}`,
		`null`, `{"items":null}`, `{"session":null,"max":null}`, `{"items":[null]}`, `[]`, `""`, ``,
		// Numbers outside the canonical shape.
		`{"max":-0}`, `{"max":-1}`, `{"deltas":[-0]}`, `{"deltas":[1.0]}`, `{"deltas":[1e3]}`,
		`{"max":1E3}`, `{"deltas":[01]}`, `{"max":00}`, `{"deltas":[0]}`,
		`{"deltas":[18446744073709551615]}`, `{"deltas":[18446744073709551616]}`,
		`{"items":[{"priority":18446744073709551616,"value":0}]}`,
		`{"max":9223372036854775807}`, `{"max":9223372036854775808}`, `{"max":"1"}`,
		// Session tokens outside printable ASCII, and escapes.
		`{"session":"sé","max":1}`, `{"session":"s\u00e9","max":1}`, `{"session":"a\"b","max":1}`,
		`{"session":"a\\b","max":1}`, "{\"session\":\"a\x7fb\",\"max\":1}", "{\"session\":\"a\tb\",\"max\":1}",
		"{\"session\":\"\xff\",\"max\":1}",
		// Structure and trailing data.
		`{"max":1,}`, `{,"max":1}`, `{"max":1 "session":"a"}`, `{"deltas":[1,]}`, `{"deltas":[,1]}`,
		`{"max":1}}`, `{"max":1} {"max":2}`, `{"max":1}x`, `{"max":1`, `{"deltas":[1`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	wb := new(wireBuf)
	f.Fuzz(func(t *testing.T, body []byte) {
		wb.body = append(wb.body[:0], body...)
		{
			got, err := wb.enqueueRequest(nil)
			want := new(EnqueueBatchRequest)
			checkDecode(t, body, "enqueue", got, *want, err, referenceDecode(body, want))
		}
		{
			got, err := wb.deleteMinRequest(nil)
			want := new(DeleteMinRequest)
			checkDecode(t, body, "delete-min", got, *want, err, referenceDecode(body, want))
		}
		{
			got, err := wb.counterAddRequest(nil)
			want := new(CounterAddRequest)
			checkDecode(t, body, "counter-add", got, *want, err, referenceDecode(body, want))
		}
	})
}

// TestWireResponseGolden pins the exact bytes of the three batch responses,
// and that each equals encoding/json's encoding of the same value.
func TestWireResponseGolden(t *testing.T) {
	item := `{"priority":7,"value":9}`
	many := make([]WireItem, 1024)
	for i := range many {
		many[i] = WireItem{Priority: 7, Value: 9}
	}
	cases := []struct {
		v interface {
			appendJSON([]byte) []byte
		}
		want string
	}{
		{EnqueueBatchResponse{}, `{"enqueued":0,"buffered":0}`},
		{EnqueueBatchResponse{Enqueued: 1024, Buffered: 7}, `{"enqueued":1024,"buffered":7}`},
		{DeleteMinResponse{}, `{"items":null}`},
		{DeleteMinResponse{Items: []WireItem{}}, `{"items":[]}`},
		{DeleteMinResponse{Items: []WireItem{{Priority: 1, Value: 2}}}, `{"items":[{"priority":1,"value":2}]}`},
		{DeleteMinResponse{Items: many}, `{"items":[` + strings.Repeat(item+",", 1023) + item + `]}`},
		{DeleteMinResponse{Items: []WireItem{}, Truncated: true}, `{"items":[],"truncated":true}`},
		{DeleteMinResponse{Truncated: true}, `{"items":null,"truncated":true}`},
		{DeleteMinResponse{Items: []WireItem{{Priority: math.MaxUint64, Value: math.MaxUint64}, {Priority: 0, Value: 1 << 48}}},
			`{"items":[{"priority":18446744073709551615,"value":18446744073709551615},{"priority":0,"value":281474976710656}]}`},
		{CounterAddResponse{}, `{"added":0,"buffered_ops":0,"buffered_weight":0}`},
		{CounterAddResponse{Added: 3, BufferedOps: 5, BufferedWeight: math.MaxUint64},
			`{"added":3,"buffered_ops":5,"buffered_weight":18446744073709551615}`},
	}
	for _, tc := range cases {
		want := []byte(tc.want + "\n")
		got := tc.v.appendJSON([]byte("prefix"))
		if !bytes.Equal(got[len("prefix"):], want) || string(got[:len("prefix")]) != "prefix" {
			t.Errorf("%T: got %q, want %q", tc.v, got, want)
		}
		var ref bytes.Buffer
		if err := json.NewEncoder(&ref).Encode(tc.v); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ref.Bytes(), want) {
			t.Errorf("%T: encoding/json gives %q, golden %q", tc.v, ref.Bytes(), want)
		}
	}
}

// TestServeHotPathAllocs gates the allocations of one in-process ServeHTTP
// on the three batch endpoints, durability off: at most 10 per request at
// batch 1, and no more than 2 beyond that at batch 1024, so an allocation
// per item fails it.
func TestServeHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a share of Puts under the race detector")
	}
	const batch1Bound, perBatchSlack = 10, 2
	for _, batch := range []int{1, 1024} {
		s := New(Config{Queues: 8, Batch: 8})
		items := make([]WireItem, batch)
		deltas := make([]uint64, batch)
		for i := range items {
			items[i] = WireItem{Priority: uint64(i) * 7919 % 1000003, Value: uint64(i) << 20}
			deltas[i] = uint64(i%5 + 1)
		}
		enq, _ := json.Marshal(EnqueueBatchRequest{Session: "s", Items: items})
		del, _ := json.Marshal(DeleteMinRequest{Session: "s", Max: batch})
		add, _ := json.Marshal(CounterAddRequest{Session: "s", Deltas: deltas})
		const runs = 50
		allocs := func(op string, body []byte) float64 {
			reqs := make([]*http.Request, runs+1) // AllocsPerRun adds one warm-up run
			recs := make([]*httptest.ResponseRecorder, runs+1)
			for i := range reqs {
				reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/t/"+op, bytes.NewReader(body))
				recs[i] = httptest.NewRecorder()
			}
			i := 0
			n := testing.AllocsPerRun(runs, func() {
				s.ServeHTTP(recs[i], reqs[i])
				i++
			})
			for _, rec := range recs {
				if rec.Code != http.StatusOK {
					t.Fatalf("%s: %d %s", op, rec.Code, rec.Body)
				}
			}
			return n
		}
		// An unmeasured round of enqueues warms the lease and the pool; with
		// the measured round it leaves enough elements for every delete to
		// return a full batch.
		allocs("enqueue-batch", enq)
		bound := float64(batch1Bound)
		if batch > 1 {
			bound += perBatchSlack
		}
		for _, op := range []struct {
			name string
			body []byte
		}{{"enqueue-batch", enq}, {"delete-min-up-to", del}, {"counter/add-batch", add}} {
			if n := allocs(op.name, op.body); n > bound {
				t.Errorf("batch %d %s: %.1f allocs per request, want <= %.0f", batch, op.name, n, bound)
			} else {
				t.Logf("batch %d %s: %.1f allocs per request", batch, op.name, n)
			}
		}
	}
}
