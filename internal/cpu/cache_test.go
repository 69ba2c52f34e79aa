package cpu

// Cache-reset equivalence: Reset clears only the sets that installed a line,
// so a reset cache must be indistinguishable from a fresh one — on every
// later access stream, in hit/miss sequence and statistics — whatever the
// stream before the reset touched.

import (
	"math/rand"
	"slices"
	"testing"
)

// cacheRun feeds addrs to c and returns the hit/miss sequence.
func cacheRun(c *Cache, addrs []uint32) []bool {
	hits := make([]bool, len(addrs))
	for i, a := range addrs {
		hits[i] = c.Access(a)
	}
	return hits
}

// TestCacheResetMatchesFresh runs seeded access streams over the L1, L2 and
// L3 geometries. For every ordered pair of streams (A, B), a cache that ran
// A and was then Reset must give the same hit/miss sequence and the same
// Misses/Accesses on B as a fresh NewCache, and its line and MRU state must
// equal the fresh cache's.
func TestCacheResetMatchesFresh(t *testing.T) {
	geoms := []struct {
		name                 string
		size, lineSize, ways int
	}{
		{"L1", 32 * 1024, 64, 8},
		{"L2", 256 * 1024, 64, 8},
		{"L3", 15 * 1024 * 1024, 64, 16},
	}
	for _, g := range geoms {
		t.Run(g.name, func(t *testing.T) {
			fresh := NewCache(g.size, g.lineSize, g.ways)
			sets := int(fresh.setMask) + 1
			rng := rand.New(rand.NewSource(int64(g.size)))
			random := func(n int, span uint32) []uint32 {
				s := make([]uint32, n)
				for i := range s {
					s[i] = rng.Uint32() % span
				}
				return s
			}
			// every sweeps each set with ways+1 distinct lines, twice, so
			// every set fills and then evicts. (L3's 15360 sets are not a
			// power of two; the sweep covers every set its index mask
			// reaches.)
			var every []uint32
			for pass := 0; pass < 2; pass++ {
				for l := 0; l < sets*(g.ways+1); l++ {
					every = append(every, uint32(l*g.lineSize))
				}
			}
			streams := map[string][]uint32{
				"hot":    random(4000, uint32(g.size/4)),
				"wide":   random(20000, 1<<30),
				"every":  every,
				"sparse": random(50, 1<<30),
			}
			names := []string{"hot", "wide", "every", "sparse"}
			for _, a := range names {
				for _, b := range names {
					c := NewCache(g.size, g.lineSize, g.ways)
					cacheRun(c, streams[a])
					c.Reset()
					if !slices.Equal(c.lines, fresh.lines) || !slices.Equal(c.mru, fresh.mru) || c.tick != 0 {
						t.Fatalf("%s then Reset: state differs from a fresh cache", a)
					}
					ref := NewCache(g.size, g.lineSize, g.ways)
					want := cacheRun(ref, streams[b])
					got := cacheRun(c, streams[b])
					if !slices.Equal(got, want) {
						t.Errorf("%s, Reset, %s: hit/miss sequence differs from a fresh cache", a, b)
					}
					if c.Misses != ref.Misses || c.Accesses != ref.Accesses {
						t.Errorf("%s, Reset, %s: misses/accesses %d/%d, fresh cache %d/%d",
							a, b, c.Misses, c.Accesses, ref.Misses, ref.Accesses)
					}
				}
			}
		})
	}
}
