package dlzd

// Hand-written JSON codec for the three batch endpoints (enqueue-batch,
// delete-min-up-to, counter/add-batch; DESIGN.md §8 "Wire codec").
//
// Decoding has a fast path and a fallback. The fast path scans the body
// with a byte scanner straight into pooled slices, and accepts only the
// canonical shape: one object with exact lower-case keys, each key at most
// once, strings of printable ASCII without escapes, JSON-legal unsigned
// integers that fit their field, any whitespace, and nothing but whitespace
// after the closing brace. Every such body decodes under encoding/json to
// the same struct. Anything else goes, byte for byte, to decodeJSON, the
// reference decoder every endpoint shares, which decodes into a fresh zero
// struct: case-folded and escaped keys, duplicate keys, null, and every
// rejected body therefore behave exactly as encoding/json makes them, error
// text included. The fast path never reports an error of its own.
//
// Encoding appends the three responses with strconv into a pooled buffer,
// byte-identical to json.NewEncoder(w).Encode of the same value.

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/wal"
)

// maxPooledBytes bounds the body and response buffers wirePool keeps: a
// MaxWireBatch-item body at the widest item encoding
// (`{"priority":<20 digits>,"value":<20 digits>},`, 63 bytes) plus room for
// the envelope. A larger buffer served one outsized request and is dropped,
// so the pool never holds more than a full batch per buffer.
const maxPooledBytes = 64*MaxWireBatch + 4096

// wireBuf is one batch request's scratch: the body, the decoded items or
// deltas, the journal's copy of the items, and the response. Handlers take
// one from wirePool and return it only after their journal defer has run.
// Item slices never exceed MaxWireBatch: the fast path stops there, and a
// drain and its journal copy are bounded by DeleteMinRequest.Max.
type wireBuf struct {
	body   []byte
	items  []WireItem
	deltas []uint64
	wal    []wal.Item
	out    []byte
}

var wirePool = sync.Pool{New: func() any { return new(wireBuf) }}

func getWireBuf() *wireBuf { return wirePool.Get().(*wireBuf) }

func putWireBuf(wb *wireBuf) {
	if cap(wb.body) > maxPooledBytes {
		wb.body = nil
	}
	if cap(wb.out) > maxPooledBytes {
		wb.out = nil
	}
	wirePool.Put(wb)
}

// errTrailingData rejects a body holding more than one JSON value.
var errTrailingData = errors.New("trailing data after the JSON object")

// decodeJSON is the reference decoder: exactly one JSON object into v, no
// unknown fields, and nothing but whitespace after it (a second Decode must
// hit io.EOF).
func decodeJSON(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); err != io.EOF {
		return errTrailingData
	}
	return nil
}

// requirePost answers 405 to anything but POST.
func requirePost(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return false
	}
	return true
}

func writeBadBody(w http.ResponseWriter, err error) {
	writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
}

// read reads body to EOF into wb.body. A read error (the request's
// MaxBytesReader limit, a dropped connection) is returned for the fallback
// to report; the bytes read before it stay in wb.body.
func (wb *wireBuf) read(body io.Reader, contentLength int64) error {
	buf := wb.body[:0]
	if contentLength >= int64(cap(buf)) && contentLength < maxPooledBytes {
		buf = make([]byte, 0, contentLength+1) // +1: room for the Read that reports EOF
	}
	var err error
	for err == nil {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		var n int
		n, err = body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
	}
	wb.body = buf
	if err == io.EOF {
		return nil
	}
	return err
}

// fallback decodes wb.body, followed by readErr if the read failed, with
// the reference decoder into v, a fresh zero struct.
func (wb *wireBuf) fallback(readErr error, v any) error {
	var body io.Reader = bytes.NewReader(wb.body)
	if readErr != nil {
		body = io.MultiReader(body, errReader{readErr})
	}
	return decodeJSON(body, v)
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// enqueueRequest decodes wb.body as an EnqueueBatchRequest. On the fast
// path Items aliases wb.items.
func (wb *wireBuf) enqueueRequest(readErr error) (EnqueueBatchRequest, error) {
	var req EnqueueBatchRequest
	if readErr == nil && wb.parseEnqueue(&req) {
		return req, nil
	}
	fresh := new(EnqueueBatchRequest)
	err := wb.fallback(readErr, fresh)
	return *fresh, err
}

// deleteMinRequest decodes wb.body as a DeleteMinRequest.
func (wb *wireBuf) deleteMinRequest(readErr error) (DeleteMinRequest, error) {
	var req DeleteMinRequest
	if readErr == nil && wb.parseDeleteMin(&req) {
		return req, nil
	}
	fresh := new(DeleteMinRequest)
	err := wb.fallback(readErr, fresh)
	return *fresh, err
}

// counterAddRequest decodes wb.body as a CounterAddRequest. On the fast
// path Deltas aliases wb.deltas.
func (wb *wireBuf) counterAddRequest(readErr error) (CounterAddRequest, error) {
	var req CounterAddRequest
	if readErr == nil && wb.parseCounterAdd(&req) {
		return req, nil
	}
	fresh := new(CounterAddRequest)
	err := wb.fallback(readErr, fresh)
	return *fresh, err
}

func (wb *wireBuf) parseEnqueue(req *EnqueueBatchRequest) bool {
	s := scanner{b: wb.body}
	var seen uint8
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "session":
			return once(&seen, 1) && s.session(&req.Session)
		case "items":
			if !once(&seen, 2) {
				return false
			}
			var ok bool
			wb.items, ok = list(&s, wb.items, s.item)
			req.Items = wb.items
			return ok
		}
		return false
	}) && s.end()
}

func (wb *wireBuf) parseDeleteMin(req *DeleteMinRequest) bool {
	s := scanner{b: wb.body}
	var seen uint8
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "session":
			return once(&seen, 1) && s.session(&req.Session)
		case "max":
			if !once(&seen, 2) {
				return false
			}
			v, ok := s.uint(math.MaxInt)
			req.Max = int(v)
			return ok
		}
		return false
	}) && s.end()
}

func (wb *wireBuf) parseCounterAdd(req *CounterAddRequest) bool {
	s := scanner{b: wb.body}
	var seen uint8
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "session":
			return once(&seen, 1) && s.session(&req.Session)
		case "deltas":
			if !once(&seen, 2) {
				return false
			}
			var ok bool
			wb.deltas, ok = list(&s, wb.deltas, s.uint64)
			req.Deltas = wb.deltas
			return ok
		}
		return false
	}) && s.end()
}

// list scans an array of at most MaxWireBatch elements into buf[:0], elem
// consuming each one. An empty array yields an empty, non-nil slice, as
// encoding/json decodes it. A longer array is left to the fallback, and the
// handler rejects it.
func list[T any](s *scanner, buf []T, elem func(*T) bool) ([]T, bool) {
	out := buf[:0]
	if out == nil {
		out = make([]T, 0, 16)
	}
	ok := s.array(func() bool {
		if len(out) == MaxWireBatch {
			return false
		}
		out = grow(out)
		return elem(&out[len(out)-1])
	})
	return out, ok
}

// grow extends s by one element, reallocating by doubling up to
// MaxWireBatch so pooled slices never outgrow a full batch.
func grow[T any](s []T) []T {
	if len(s) == cap(s) {
		t := make([]T, len(s), min(max(2*cap(s), 16), MaxWireBatch))
		copy(t, s)
		s = t
	}
	return s[:len(s)+1]
}

// once records bit in seen, failing if the key was already present.
func once(seen *uint8, bit uint8) bool {
	if *seen&bit != 0 {
		return false
	}
	*seen |= bit
	return true
}

// scanner walks the canonical request shape. Every method reports false on
// anything outside it and leaves the decision to the fallback.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// lit consumes c after optional whitespace.
func (s *scanner) lit(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// end reports whether only whitespace remains.
func (s *scanner) end() bool {
	s.ws()
	return s.i == len(s.b)
}

// object scans {"key": value, ...}; field consumes the value of each key.
func (s *scanner) object(field func(key []byte) bool) bool {
	if !s.lit('{') {
		return false
	}
	if s.lit('}') {
		return true
	}
	for {
		key, ok := s.str()
		if !ok || !s.lit(':') || !field(key) {
			return false
		}
		if s.lit('}') {
			return true
		}
		if !s.lit(',') {
			return false
		}
	}
}

// array scans [elem, ...]; elem consumes one element.
func (s *scanner) array(elem func() bool) bool {
	if !s.lit('[') {
		return false
	}
	if s.lit(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if s.lit(']') {
			return true
		}
		if !s.lit(',') {
			return false
		}
	}
}

// str scans a string of printable ASCII without escapes and returns its
// bytes, which encoding/json would decode unchanged.
func (s *scanner) str() ([]byte, bool) {
	if !s.lit('"') {
		return nil, false
	}
	for j := s.i; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			v := s.b[s.i:j]
			s.i = j + 1
			return v, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

func (s *scanner) session(dst *string) bool {
	v, ok := s.str()
	*dst = string(v)
	return ok
}

// uint scans a JSON-legal unsigned integer (no sign, fraction, exponent or
// leading zero) no larger than limit.
func (s *scanner) uint(limit uint64) (uint64, bool) {
	s.ws()
	start := s.i
	var v uint64
	for ; s.i < len(s.b); s.i++ {
		c := s.b[s.i]
		if c < '0' || c > '9' {
			break
		}
		d := uint64(c - '0')
		if v > (limit-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	n := s.i - start
	return v, n > 0 && (n == 1 || s.b[start] != '0')
}

func (s *scanner) uint64(v *uint64) bool {
	var ok bool
	*v, ok = s.uint(math.MaxUint64)
	return ok
}

// item scans one {"priority": p, "value": v} object into it; a missing key
// leaves its field zero, as encoding/json does for a fresh element.
func (s *scanner) item(it *WireItem) bool {
	*it = WireItem{}
	var seen uint8
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "priority":
			return once(&seen, 1) && s.uint64(&it.Priority)
		case "value":
			return once(&seen, 2) && s.uint64(&it.Value)
		}
		return false
	})
}

// walItems copies items into the pooled journal slice: wal.Log.Append
// encodes a record before it returns, so the slice is free again after.
func (wb *wireBuf) walItems(items []WireItem) []wal.Item {
	if cap(wb.wal) < len(items) {
		wb.wal = make([]wal.Item, len(items))
	}
	out := wb.wal[:len(items)]
	for i, it := range items {
		out[i] = wal.Item{Priority: it.Priority, Value: it.Value}
	}
	return out
}

// The appendJSON methods append the json.NewEncoder(w).Encode encoding of
// the response, trailing newline included.

func (v EnqueueBatchResponse) appendJSON(b []byte) []byte {
	b = append(b, `{"enqueued":`...)
	b = strconv.AppendInt(b, int64(v.Enqueued), 10)
	b = append(b, `,"buffered":`...)
	b = strconv.AppendInt(b, int64(v.Buffered), 10)
	return append(b, "}\n"...)
}

func (v DeleteMinResponse) appendJSON(b []byte) []byte {
	b = append(b, `{"items":`...)
	if v.Items == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, it := range v.Items {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"priority":`...)
			b = strconv.AppendUint(b, it.Priority, 10)
			b = append(b, `,"value":`...)
			b = strconv.AppendUint(b, it.Value, 10)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if v.Truncated {
		b = append(b, `,"truncated":true`...)
	}
	return append(b, "}\n"...)
}

func (v CounterAddResponse) appendJSON(b []byte) []byte {
	b = append(b, `{"added":`...)
	b = strconv.AppendInt(b, int64(v.Added), 10)
	b = append(b, `,"buffered_ops":`...)
	b = strconv.AppendInt(b, int64(v.BufferedOps), 10)
	b = append(b, `,"buffered_weight":`...)
	b = strconv.AppendUint(b, v.BufferedWeight, 10)
	return append(b, "}\n"...)
}
