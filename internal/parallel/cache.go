package parallel

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math"
	"sync"

	"cohort/internal/stats"
)

// Cache is a content-addressed memo cache for evaluation results: the key is
// a digest of everything that defines the computation (profile, scenario,
// timer vector — see Key), so identical requests are never re-simulated.
// Correctness rests on jobs being pure: the cached value for a key must be
// byte-identical to recomputing it, which makes a cache hit observationally
// equivalent to a miss and keeps every output independent of cache state.
//
// The zero value is not usable; construct with NewCache. All methods are safe
// for concurrent use.
type Cache[V any] struct {
	mu           sync.Mutex
	m            map[string]V
	hits, misses int64
}

// NewCache returns an empty cache.
func NewCache[V any]() *Cache[V] {
	return &Cache[V]{m: make(map[string]V)}
}

// Get returns the cached value for key and counts the probe as a hit or a
// miss.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return v, ok
}

// Put stores the value for key. Racing writers for the same key are harmless:
// purity guarantees they store identical values.
func (c *Cache[V]) Put(key string, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = v
}

// GetOrCompute returns the cached value for key, computing and storing it
// on a miss. compute runs outside the cache lock, so concurrent callers may
// compute the same key redundantly; purity makes the race harmless — both
// store identical values (see Put). The probe is counted exactly once.
func (c *Cache[V]) GetOrCompute(key string, compute func() V) V {
	if v, ok := c.Get(key); ok {
		return v
	}
	v := compute()
	c.Put(key, v)
	return v
}

// Len returns the number of cached entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Reset drops every entry and zeroes the counters. The serial-equivalence
// tests call this between the -j 1 and -j N runs so both compute from a cold
// cache.
func (c *Cache[V]) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m = make(map[string]V)
	c.hits, c.misses = 0, 0
}

// Stats returns the probe counters.
func (c *Cache[V]) Stats() stats.EngineStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return stats.EngineStats{
		Jobs:        c.hits + c.misses,
		CacheHits:   c.hits,
		CacheMisses: c.misses,
	}
}

// Key digests the values that define a computation into a content-addressed
// cache key. Append values in a fixed order; variable-length fields are
// length-prefixed so no two distinct value sequences produce the same byte
// stream. The digest is SHA-256, so key collisions — which would silently
// alias two different computations — are not a practical concern.
//
// The byte stream is hashed as it is appended, through a fixed scratch
// buffer of keyScratch bytes, so keying a whole trace costs no more memory
// than keying one integer. SHA-256 of a byte sequence does not depend on how
// the sequence is split across writes, so the digest equals sha256.Sum256 of
// the full concatenated encoding.
type Key struct {
	h       hash.Hash
	n       int // pending bytes in scratch
	scratch [keyScratch]byte
}

// keyScratch is the size of Key's pending-byte buffer: eight SHA-256
// blocks, so a flush is rare and the buffer stays small enough to embed in
// every key.
const keyScratch = 512

// NewKey starts a key in the given domain; distinct domains (e.g. "opt" vs
// "sim") can never collide even over identical payloads.
func NewKey(domain string) *Key {
	k := &Key{h: sha256.New()}
	k.Str(domain)
	return k
}

// flush hashes the pending bytes.
func (k *Key) flush() {
	k.h.Write(k.scratch[:k.n])
	k.n = 0
}

// Uint64 appends a fixed-width integer.
func (k *Key) Uint64(v uint64) *Key {
	if k.n+8 > keyScratch {
		k.flush()
	}
	binary.LittleEndian.PutUint64(k.scratch[k.n:], v)
	k.n += 8
	return k
}

// Int64 appends a signed integer.
func (k *Key) Int64(v int64) *Key { return k.Uint64(uint64(v)) }

// Int appends a platform int.
func (k *Key) Int(v int) *Key { return k.Int64(int64(v)) }

// Float64 appends a float by its IEEE-754 bit pattern.
func (k *Key) Float64(v float64) *Key { return k.Uint64(math.Float64bits(v)) }

// Bool appends a boolean.
func (k *Key) Bool(v bool) *Key {
	if v {
		return k.Uint64(1)
	}
	return k.Uint64(0)
}

// Bytes appends a length-prefixed byte slice.
func (k *Key) Bytes(b []byte) *Key {
	k.Uint64(uint64(len(b)))
	appendRaw(k, b)
	return k
}

// Str appends a length-prefixed string.
func (k *Key) Str(s string) *Key {
	k.Uint64(uint64(len(s)))
	appendRaw(k, s)
	return k
}

// appendRaw copies p into the scratch buffer, flushing each time it fills.
func appendRaw[T string | []byte](k *Key, p T) {
	for len(p) > 0 {
		if k.n == keyScratch {
			k.flush()
		}
		c := copy(k.scratch[k.n:], p)
		k.n += c
		p = p[c:]
	}
}

// Sum returns the content digest of everything appended so far as a compact
// string key. It does not reset the key: calling it twice returns the same
// digest, and appending after Sum extends the same stream.
func (k *Key) Sum() string {
	k.flush()
	var d [sha256.Size]byte
	return string(k.h.Sum(d[:0]))
}
