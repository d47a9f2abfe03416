// Package cache models the processor-side cache hierarchy of Table III —
// 32 KB 4-way L1s, 256 KB 8-way L2s, and an 8 MB 16-way shared L3 — the
// substitute for the paper's Sniper core model (DESIGN.md §1). Its job in
// this repository is to turn program-level memory reference streams into
// the LLC miss traces the ORAM controller serves, and to model the
// prefetch-fill effect (an ORAM access that returns a group of lines
// installs all of them, so later references hit on-chip and bypass ORAM).
package cache

import "fmt"

// LineBytes is the cache line size.
const LineBytes = 64

// Level describes one cache level's geometry.
type Level struct {
	Name     string
	Capacity uint64 // bytes
	Ways     int
}

// Table3Hierarchy returns the paper's three-level hierarchy (per-core L1/L2
// plus the shared L3; single-stream simulation folds the private levels).
func Table3Hierarchy() []Level {
	return []Level{
		{Name: "L1", Capacity: 32 << 10, Ways: 4},
		{Name: "L2", Capacity: 256 << 10, Ways: 8},
		{Name: "L3", Capacity: 8 << 20, Ways: 16},
	}
}

// set is one associative set with LRU order (front = LRU victim).
type set struct {
	tags []uint64
}

// Cache is a single set-associative, write-allocate, LRU cache operating on
// line addresses.
type Cache struct {
	level Level
	nSets uint64
	sets  []set

	Hits, Misses uint64
}

// NewCache builds a cache from a level spec.
func NewCache(l Level) (*Cache, error) {
	if l.Capacity == 0 || l.Ways <= 0 {
		return nil, fmt.Errorf("cache: invalid level %+v", l)
	}
	lines := l.Capacity / LineBytes
	nSets := lines / uint64(l.Ways)
	if nSets == 0 {
		return nil, fmt.Errorf("cache: %s has fewer lines than ways", l.Name)
	}
	c := &Cache{level: l, nSets: nSets, sets: make([]set, nSets)}
	return c, nil
}

// Level returns the cache's geometry.
func (c *Cache) Level() Level { return c.level }

// Access looks line up, updating LRU state; on a miss the line is
// installed (write-allocate) and the victim line is returned with
// evicted=true if a valid line was displaced.
func (c *Cache) Access(line uint64) (hit bool, victim uint64, evicted bool) {
	s := &c.sets[line%c.nSets]
	for i, tg := range s.tags {
		if tg == line {
			c.Hits++
			s.tags = append(append(s.tags[:i], s.tags[i+1:]...), line)
			return true, 0, false
		}
	}
	c.Misses++
	if len(s.tags) >= c.level.Ways {
		victim = s.tags[0]
		s.tags = s.tags[1:]
		evicted = true
	}
	s.tags = append(s.tags, line)
	return false, victim, evicted
}

// Install inserts a line without counting an access (prefetch fill). It
// reports the displaced victim, if any.
func (c *Cache) Install(line uint64) (victim uint64, evicted bool) {
	s := &c.sets[line%c.nSets]
	for i, tg := range s.tags {
		if tg == line {
			s.tags = append(append(s.tags[:i], s.tags[i+1:]...), line)
			return 0, false
		}
	}
	if len(s.tags) >= c.level.Ways {
		victim = s.tags[0]
		s.tags = s.tags[1:]
		evicted = true
	}
	s.tags = append(s.tags, line)
	return victim, evicted
}

// Contains reports residence without touching LRU state.
func (c *Cache) Contains(line uint64) bool {
	s := &c.sets[line%c.nSets]
	for _, tg := range s.tags {
		if tg == line {
			return true
		}
	}
	return false
}

// HitRate returns hits / (hits + misses).
func (c *Cache) HitRate() float64 {
	t := c.Hits + c.Misses
	if t == 0 {
		return 0
	}
	return float64(c.Hits) / float64(t)
}

// Hierarchy chains cache levels; an access walks L1→L2→L3 and reports
// whether it missed all levels (an LLC miss that the ORAM controller must
// serve). Fills install the line at every level (inclusive hierarchy).
type Hierarchy struct {
	levels []*Cache

	Refs      uint64
	LLCMisses uint64
}

// NewHierarchy builds a hierarchy from level specs (outermost last).
func NewHierarchy(levels []Level) (*Hierarchy, error) {
	if len(levels) == 0 {
		return nil, fmt.Errorf("cache: empty hierarchy")
	}
	h := &Hierarchy{}
	for _, l := range levels {
		c, err := NewCache(l)
		if err != nil {
			return nil, err
		}
		h.levels = append(h.levels, c)
	}
	return h, nil
}

// Levels returns the constituent caches, innermost first.
func (h *Hierarchy) Levels() []*Cache { return h.levels }

// Access performs one reference; it returns true when the reference misses
// every level and must go to (ORAM-protected) memory. The line is installed
// at all levels on the way back.
func (h *Hierarchy) Access(line uint64) (llcMiss bool) {
	h.Refs++
	for i, c := range h.levels {
		hit, _, _ := c.Access(line)
		if hit {
			// Fill the inner levels (they already installed on their miss
			// path via write-allocate in Access).
			_ = i
			return false
		}
	}
	h.LLCMisses++
	return true
}

// MissRate returns LLC misses per reference.
func (h *Hierarchy) MissRate() float64 {
	if h.Refs == 0 {
		return 0
	}
	return float64(h.LLCMisses) / float64(h.Refs)
}
