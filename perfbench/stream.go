package main

import (
	"math"
	"math/rand/v2"
	"sort"
)

// keyBits sizes the map workloads' key space: 2^16 keys.
const keyBits = 16

// numKeys is the map workloads' key-space size.
const numKeys = 1 << keyBits

// zipf draws ranks in [0, n) with P(r) proportional to 1/(r+1)^theta by
// inverting the exact cumulative distribution (binary search over a
// precomputed table), so every rank's frequency is the analytic one —
// not the Gray et al. approximation, which is exact only for the first
// two ranks. Immutable after construction; clients share one table.
type zipf struct {
	cdf []float64
}

func newZipf(n int, theta float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), theta)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1
	return &zipf{cdf: cdf}
}

// rank maps a uniform draw u in [0, 1) to a rank.
func (z *zipf) rank(u float64) int {
	return sort.SearchFloat64s(z.cdf, u)
}

// opKind is one benchmark operation.
type opKind uint8

const (
	kEnqueue opKind = iota
	kDequeue
	kPush
	kPop
	kTryDequeueAny
	kGet
	kUpsert
	kRemove
	kUpsertAgg
	kRemoveAgg
	numKinds
)

// kindNames are the per-layer metric names of the timed calls.
var kindNames = [numKinds]string{
	kEnqueue:       "queue.enqueue_us",
	kDequeue:       "queue.dequeue_us",
	kPush:          "stack.push_us",
	kPop:           "stack.pop_us",
	kTryDequeueAny: "queue.try_dequeue_any_us",
	kGet:           "hashmap.get_us",
	kUpsert:        "hashmap.upsert_us",
	kRemove:        "hashmap.remove_us",
	kUpsertAgg:     "hashmap.upsert_agg_us",
	kRemoveAgg:     "hashmap.remove_agg_us",
}

// share is one entry of an op mix: a kind, its weight in percent, and
// the locales allowed to issue it.
type share struct {
	kind    opKind
	percent int
	locales []int
}

// op is one generated operation: the issuing locale, the kind, and for
// the map workloads the key.
type op struct {
	loc  int
	kind opKind
	key  uint64
}

// keyPerm is a seeded bijection of the key space: the Zipf rank r maps
// to key (r*mul + add) mod 2^16 with mul odd, so hot ranks land on
// scattered keys (and so on scattered buckets and owner locales) that
// differ per seed.
type keyPerm struct{ mul, add uint64 }

func newKeyPerm(seed uint64) keyPerm {
	r := rand.New(rand.NewPCG(seed, 0x6b657973))
	return keyPerm{mul: r.Uint64()&(numKeys-1) | 1, add: r.Uint64() & (numKeys - 1)}
}

func (p keyPerm) key(rank int) uint64 { return (uint64(rank)*p.mul + p.add) & (numKeys - 1) }

// stream is one client's seeded op generator. It holds no reference to
// the program: the workloads receive only the locale, kind and key it
// draws.
type stream struct {
	rng     *rand.Rand
	mix     []share
	zipf    *zipf   // nil for the queue workloads
	perm    keyPerm // rank -> key
	writers int     // writer tasks (clients x locales); 0 for the queue workloads
	client  int
	locales int
}

func newStream(seed uint64, client int, mix []share, z *zipf, perm keyPerm, writers, locales int) *stream {
	return &stream{
		rng:     rand.New(rand.NewPCG(seed, 0x6f707300+uint64(client))),
		mix:     mix,
		zipf:    z,
		perm:    perm,
		writers: writers,
		client:  client,
		locales: locales,
	}
}

// next draws the next op: kind by the mix, issuing locale uniformly
// from the kind's allowed locales, and for map ops a Zipf key. Writes
// are folded onto the keys the issuing writer task owns, so every key
// has exactly one writer (see writerOf).
func (s *stream) next() op {
	p := s.rng.IntN(100)
	var sh *share
	for i := range s.mix {
		if p < s.mix[i].percent {
			sh = &s.mix[i]
			break
		}
		p -= s.mix[i].percent
	}
	o := op{kind: sh.kind, loc: sh.locales[s.rng.IntN(len(sh.locales))]}
	if s.zipf != nil {
		o.key = s.perm.key(s.zipf.rank(s.rng.Float64()))
		if isWrite(o.kind) {
			o.key = ownKey(o.key, s.client*s.locales+o.loc, s.writers)
		}
	}
	return o
}

func isWrite(k opKind) bool {
	return k == kUpsert || k == kRemove || k == kUpsertAgg || k == kRemoveAgg
}

// ownKey folds key onto the residue class of writer task w, keeping its
// Zipf hotness: writers must divide the key-space size.
func ownKey(key uint64, w, writers int) uint64 {
	return key - key%uint64(writers) + uint64(w)
}

// writerOf is the one writer task (client*locales + locale) of a key.
func writerOf(key uint64, writers int) int { return int(key % uint64(writers)) }
