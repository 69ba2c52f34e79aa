package cpu

// Cache simulates a set-associative cache with LRU replacement. It tracks
// hits and misses only (contents are not modeled).
//
// The storage layout is optimized for the simulator's hot path: all lines
// live in one flat backing array indexed set-major (set s occupies
// lines[s*ways : (s+1)*ways]), and a per-set MRU index implements way
// prediction — the common repeat hit to a set is a single tag compare
// instead of an associative scan. Replacement decisions, hit/miss outcomes,
// and statistics are bit-identical to the straightforward LRU model: a line
// with used == 0 is invalid, ticks start at 1, and the victim scan's strict
// minimum over used picks the first invalid way when one exists, exactly as
// an explicit invalid-first scan would.
//
// Reset costs time in proportion to the sets the cache actually used, not
// its capacity: the miss path records each set that installs its first line
// since the last Reset (dirty), and Reset clears only those. A set can hold
// a valid line only after a miss in it, so every other set is still in its
// NewCache state. The hit paths do no bookkeeping.
type Cache struct {
	lines    []line   // nsets * ways, way-stride 1
	mru      []uint32 // per-set absolute index of the most recently used line
	dirty    []uint32 // dirty[:ndirty]: sets that installed a line since Reset
	ndirty   uint32
	setMask  uint32
	ways     uint32
	lineBits uint32
	tick     uint64
	Misses   uint64
	Accesses uint64
}

type line struct {
	tag  uint64
	used uint64 // last-touch tick; 0 marks an invalid line
}

// NewCache builds a cache of size bytes with the given line size and
// associativity. Sizes must be powers of two.
func NewCache(size, lineSize, ways int) *Cache {
	nsets := size / lineSize / ways
	c := &Cache{
		lines:   make([]line, nsets*ways),
		mru:     make([]uint32, nsets),
		dirty:   make([]uint32, nsets),
		setMask: uint32(nsets - 1),
		ways:    uint32(ways),
	}
	for i := range c.mru {
		c.mru[i] = uint32(i) * c.ways
	}
	for lineSize > 1 {
		lineSize >>= 1
		c.lineBits++
	}
	return c
}

// Access touches addr, returning true on hit. The way-predicted MRU check
// is kept small enough to inline at call sites; the associative scan and
// replacement live in accessSlow.
func (c *Cache) Access(addr uint32) bool {
	c.Accesses++
	c.tick++
	lineAddr := uint64(addr >> c.lineBits)
	set := uint32(lineAddr) & c.setMask
	if l := &c.lines[c.mru[set]]; l.tag == lineAddr && l.used != 0 {
		l.used = c.tick
		return true
	}
	return c.accessSlow(lineAddr, set)
}

// accessSlow scans the set associatively, tracking the LRU victim in the
// same pass so a miss costs one sweep, and replaces it on miss.
func (c *Cache) accessSlow(lineAddr uint64, set uint32) bool {
	base := set * c.ways
	ways := c.lines[base : base+c.ways]
	victim := 0
	for i := range ways {
		if ways[i].used != 0 && ways[i].tag == lineAddr {
			ways[i].used = c.tick
			c.mru[set] = base + uint32(i)
			return true
		}
		// Invalid ways have used 0 and therefore win the strict-minimum
		// scan, reproducing an explicit invalid-first policy.
		if ways[i].used < ways[victim].used {
			victim = i
		}
	}
	c.Misses++
	// Ways fill in index order from an empty set (the victim scan picks
	// the first invalid way), so an invalid way 0 means the set is empty
	// and this is its first install since Reset.
	// An indexed store rather than append keeps this function free of
	// calls that return (append's growslice), so it stays a small frameless
	// leaf on the miss path.
	if ways[0].used == 0 {
		c.dirty[c.ndirty] = set
		c.ndirty++
	}
	ways[victim] = line{tag: lineAddr, used: c.tick}
	c.mru[set] = base + uint32(victim)
	return false
}

// Reset clears contents and statistics, returning the cache to its NewCache
// state by clearing only the sets that installed a line since the last
// Reset.
func (c *Cache) Reset() {
	for _, set := range c.dirty[:c.ndirty] {
		base := set * c.ways
		clear(c.lines[base : base+c.ways])
		c.mru[set] = base
	}
	c.ndirty = 0
	c.Misses, c.Accesses, c.tick = 0, 0, 0
}

// BranchPredictor is a bimodal predictor of 2-bit saturating counters.
type BranchPredictor struct {
	table  []uint8
	mask   uint32
	Misses uint64
	Total  uint64
}

// NewBranchPredictor builds a predictor with entries slots (power of two).
func NewBranchPredictor(entries int) *BranchPredictor {
	return &BranchPredictor{table: make([]uint8, entries), mask: uint32(entries - 1)}
}

// Reset clears the predictor's counters and statistics.
func (p *BranchPredictor) Reset() {
	clear(p.table)
	p.Misses, p.Total = 0, 0
}

// Predict consumes the outcome of a conditional branch at addr, returning
// true if it was predicted correctly.
func (p *BranchPredictor) Predict(addr uint32, taken bool) bool {
	p.Total++
	i := (addr >> 2) & p.mask
	ctr := p.table[i]
	pred := ctr >= 2
	if taken && ctr < 3 {
		p.table[i] = ctr + 1
	} else if !taken && ctr > 0 {
		p.table[i] = ctr - 1
	}
	if pred != taken {
		p.Misses++
		return false
	}
	return true
}
