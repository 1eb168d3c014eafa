package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/fnv"

	"repro/dlzd"
	"repro/internal/rng"
)

// Every input a run feeds the program comes from a stream derived from
// (--seed, workload, role), so one seed always yields the same inputs. Roles
// 0 and 1 are the two clients.
const rolePrefill = 100

// digestOps is how many inputs of each client stream the input digest
// covers, after the whole prefill.
const digestOps = 1000

func newStream(seed uint64, workload string, role uint64) *rng.Xoshiro256 {
	h := fnv.New64a()
	h.Write([]byte(workload))
	sm := rng.NewSplitMix64(seed ^ h.Sum64())
	for i := uint64(0); i <= role; i++ {
		sm.Next()
	}
	return rng.NewXoshiro256(sm.Next())
}

// Daemon workload inputs: priorities are Zipf(0.8) over 2^20 keys, values
// are unique ids (source tag in the high bits, sequence number below), and
// the request mix is 40% enqueue-batch, 40% delete-min-up-to, 20%
// counter/add-batch.
const (
	zipfKeys  = 1 << 20
	zipfTheta = 0.8
	seqBits   = 40
)

type opKind uint8

const (
	opEnqueue opKind = iota
	opDeleteMin
	opCounterAdd
	numOps
)

var opNames = [numOps]string{"enqueue", "delete_min", "counter_add"}

func valueOf(src, seq uint64) uint64 { return src<<seqBits | seq }

func splitValue(v uint64) (src, seq uint64) { return v >> seqBits, v & (1<<seqBits - 1) }

// dlzdGen is one daemon client's input stream. src tags its values: 0 is
// the prefill, client i uses i+1.
type dlzdGen struct {
	r     *rng.Xoshiro256
	z     *rng.Zipf // priorities, drawn from r
	batch int
	src   uint64
	seq   uint64
}

func newDlzdGen(seed uint64, workload string, role uint64, batch int) *dlzdGen {
	src := role + 1
	if role == rolePrefill {
		src = 0
	}
	r := newStream(seed, workload, role)
	return &dlzdGen{r: r, z: rng.NewZipf(r, zipfKeys, zipfTheta), batch: batch, src: src}
}

func (g *dlzdGen) op() opKind {
	switch x := g.r.Uint64n(10); {
	case x < 4:
		return opEnqueue
	case x < 8:
		return opDeleteMin
	default:
		return opCounterAdd
	}
}

func (g *dlzdGen) items(dst []dlzd.WireItem, n int) []dlzd.WireItem {
	dst = dst[:0]
	for i := 0; i < n; i++ {
		dst = append(dst, dlzd.WireItem{Priority: uint64(g.z.Next()), Value: valueOf(g.src, g.seq)})
		g.seq++
	}
	return dst
}

func (g *dlzdGen) deltas(dst []uint64) []uint64 {
	dst = dst[:0]
	for i := 0; i < g.batch; i++ {
		dst = append(dst, 1+g.r.Uint64n(16))
	}
	return dst
}

// coreGen is one core-mq goroutine's stream: a fair coin picks enqueue or
// dequeue, and priorities are uniform over 2^40.
type coreGen struct{ r *rng.Xoshiro256 }

func (g coreGen) next() (enqueue bool, priority uint64) {
	x := g.r.Next()
	return x&1 == 0, x >> 24
}

// tl2Gen is one tl2-mcclock goroutine's stream of distinct slot pairs.
type tl2Gen struct {
	r *rng.Xoshiro256
	n uint64
}

func (g tl2Gen) next() (i, j int) {
	a := g.r.Uint64n(g.n)
	b := g.r.Uint64n(g.n - 1)
	if b >= a {
		b++
	}
	return int(a), int(b)
}

// inputDigest hashes the prefill and the first digestOps inputs of every
// client stream of a workload, as the run would generate them from seed.
func inputDigest(w *workload, seed uint64) string {
	h := sha256.New()
	put := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	h.Write([]byte(w.name))
	w.digest(seed, put)
	return hex.EncodeToString(h.Sum(nil)[:12])
}

func digestDlzd(name string, prefill, batch int) func(uint64, func(...uint64)) {
	return func(seed uint64, put func(...uint64)) {
		var items []dlzd.WireItem
		var deltas []uint64
		pg := newDlzdGen(seed, name, rolePrefill, batch)
		items = pg.items(items, prefill)
		for _, it := range items {
			put(it.Priority, it.Value)
		}
		for c := uint64(0); c < clients; c++ {
			g := newDlzdGen(seed, name, c, batch)
			for i := 0; i < digestOps; i++ {
				op := g.op()
				put(uint64(op))
				switch op {
				case opEnqueue:
					items = g.items(items, batch)
					for _, it := range items {
						put(it.Priority, it.Value)
					}
				case opCounterAdd:
					deltas = g.deltas(deltas)
					put(deltas...)
				}
			}
		}
	}
}

func digestCoreMQ(seed uint64, put func(...uint64)) {
	pg := coreGen{newStream(seed, "core-mq", rolePrefill)}
	for i := 0; i < coreMQPrefill; i++ {
		_, p := pg.next()
		put(p)
	}
	for c := uint64(0); c < clients; c++ {
		g := coreGen{newStream(seed, "core-mq", c)}
		for i := 0; i < digestOps; i++ {
			enq, p := g.next()
			if enq {
				put(1, p)
			} else {
				put(0)
			}
		}
	}
}

func digestTL2(seed uint64, put func(...uint64)) {
	for c := uint64(0); c < clients; c++ {
		g := tl2Gen{newStream(seed, "tl2-mcclock", c), tl2Slots}
		for i := 0; i < digestOps; i++ {
			a, b := g.next()
			put(uint64(a), uint64(b))
		}
	}
}
