// Package lazyrand yields math/rand's exact streams without paying for the
// seeding up front.
//
// rand.NewSource fills a 607-entry register with 1,841 Lehmer steps before
// its first draw: about 15 µs and 5.4 KB, for generators that often draw a
// handful of values. Draw k reads register entries 607−k and 334−k and
// overwrites the second, so the first 273 draws read only entries seeding
// wrote and no draw wrote. A Lehmer state is the seed times a power of
// 48271 modulo 2³¹−1, so entry i is computable on its own from a table of
// those powers. New computes the entries a draw reads when it reads them,
// and at draw 274 hands over to a real math/rand source advanced 273 draws.
package lazyrand

import "math/rand"

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	// powLen covers the Lehmer states seeding steps through: 20 skipped,
	// then three per register entry.
	powLen = 21 + 3*rngLen
)

// pow[n] is 48271ⁿ mod 2³¹−1, so a seed's nth Lehmer state is seed·pow[n]
// mod 2³¹−1.
var pow = func() (p [powLen]uint64) {
	p[0] = 1
	for n := 1; n < powLen; n++ {
		p[n] = p[n-1] * 48271 % int32max
	}
	return p
}()

// New returns a generator whose stream is exactly that of
// rand.New(rand.NewSource(seed)), through every rand.Rand method and
// Rand.Seed. Like math/rand's, it is not safe for concurrent use.
func New(seed int64) *rand.Rand {
	s := new(source)
	s.Seed(seed)
	return rand.New(s)
}

// source is math/rand's additive lagged Fibonacci source, seeded lazily.
type source struct {
	seed  int64         // as given, for the handover
	x0    uint64        // the seed reduced as math/rand reduces it
	draws int           // draws made from the computed entries
	real  rand.Source64 // math/rand's own source once draws reaches rngTap
}

// Seed implements rand.Source.
func (s *source) Seed(seed int64) {
	x := seed % int32max
	if x < 0 {
		x += int32max
	}
	if x == 0 {
		x = 89482311
	}
	*s = source{seed: seed, x0: uint64(x)}
}

// entry is register entry i as seeding writes it.
func (s *source) entry(i int) int64 {
	n := 21 + 3*i
	a := int64(s.x0 * pow[n] % int32max)
	b := int64(s.x0 * pow[n+1] % int32max)
	c := int64(s.x0 * pow[n+2] % int32max)
	return a<<40 ^ b<<20 ^ c ^ rngCooked[i]
}

// Uint64 implements rand.Source64.
func (s *source) Uint64() uint64 {
	if s.real != nil {
		return s.real.Uint64()
	}
	if s.draws == rngTap {
		// The next draw reads the entry the first draw wrote.
		s.real = rand.NewSource(s.seed).(rand.Source64)
		for range rngTap {
			s.real.Uint64()
		}
		return s.real.Uint64()
	}
	s.draws++
	return uint64(s.entry(rngLen-s.draws) + s.entry(rngLen-rngTap-s.draws))
}

// Int63 implements rand.Source.
func (s *source) Int63() int64 { return int64(s.Uint64() & rngMask) }
