package coherence

import (
	"math/rand"
	"testing"
)

// refINC is the INC as two flat arrays allocated up front, indexed by
// set*ways+way with a parallel valid flag per way: the organisation the
// paged INC replaced, kept here verbatim as its oracle.
type refINC struct {
	sets   int
	ways   int
	blocks []uint64 // block numbers, set-major, MRU first within a set
	valid  []bool
	Hits   int64
	Misses int64

	Evictions   int64
	Invalidates int64
}

func newRefINC(sets, ways int) *refINC {
	return &refINC{
		sets:   sets,
		ways:   ways,
		blocks: make([]uint64, sets*ways),
		valid:  make([]bool, sets*ways),
	}
}

func (c *refINC) set(block uint64) int { return int(block % uint64(c.sets)) }

func (c *refINC) row(block uint64) (blocks []uint64, valid []bool) {
	s := c.set(block) * c.ways
	return c.blocks[s : s+c.ways], c.valid[s : s+c.ways]
}

func (c *refINC) Lookup(block uint64) bool {
	blocks, valid := c.row(block)
	for w := 0; w < c.ways; w++ {
		if valid[w] && blocks[w] == block {
			copy(blocks[1:w+1], blocks[:w])
			copy(valid[1:w+1], valid[:w])
			blocks[0] = block
			valid[0] = true
			c.Hits++
			return true
		}
	}
	c.Misses++
	return false
}

func (c *refINC) Insert(block uint64) {
	blocks, valid := c.row(block)
	if valid[c.ways-1] {
		c.Evictions++
	}
	copy(blocks[1:], blocks[:c.ways-1])
	copy(valid[1:], valid[:c.ways-1])
	blocks[0] = block
	valid[0] = true
}

func (c *refINC) Invalidate(block uint64) bool {
	blocks, valid := c.row(block)
	for w := 0; w < c.ways; w++ {
		if valid[w] && blocks[w] == block {
			c.Invalidates++
			copy(blocks[w:], blocks[w+1:])
			// The LRU way is dropped along with the invalidated block
			// (cleared before the flag compaction, so the way shifted
			// into the last slot comes up invalid as well).
			valid[c.ways-1] = false
			copy(valid[w:], valid[w+1:])
			valid[c.ways-1] = false
			return true
		}
	}
	return false
}

// TestINCMatchesFlatOracle drives the paged INC and refINC with the
// same random Insert/Lookup/Invalidate streams and requires every
// return value and counter to agree. The blocks fall on a few sets, so
// sets fill, evict and lose ways to invalidations.
func TestINCMatchesFlatOracle(t *testing.T) {
	for _, ways := range []int{1, 2, 7} {
		// 2,048 sets is the paper's INC (a power of two, 32 tag
		// pages); 100 sets leaves a partly used last page.
		for _, sets := range []int{2048, 100} {
			got := NewINCGeom(uint64(sets*ways)*32, 32, ways, ways)
			if got.sets != sets {
				t.Fatalf("geometry: %d sets, want %d", got.sets, sets)
			}
			ref := newRefINC(sets, ways)
			rng := rand.New(rand.NewSource(int64(sets*10 + ways)))
			// Sets 0 and 1 plus two sets on the last tag page.
			hot := []uint64{0, 1, uint64(sets - 1), uint64(sets - incPageSets/2)}
			// The reported defect first: fill set 0, invalidate its MRU
			// block, then probe the set's former LRU block.
			for b := uint64(0); b < uint64(ways); b++ {
				got.Insert(b * uint64(sets))
				ref.Insert(b * uint64(sets))
			}
			ops := [][2]uint64{{2, uint64(ways-1) * uint64(sets)}, {1, 0}}
			for i := 0; i < 20000; i++ {
				block := hot[rng.Intn(len(hot))] + uint64(rng.Intn(3*ways))*uint64(sets)
				if rng.Intn(8) == 0 {
					block = uint64(rng.Int63n(MaxAddr / BlockSize))
				}
				ops = append(ops, [2]uint64{uint64(rng.Intn(3)), block})
			}
			for i, op := range ops {
				var g, r bool
				switch op[0] {
				case 0:
					got.Insert(op[1])
					ref.Insert(op[1])
				case 1:
					g, r = got.Lookup(op[1]), ref.Lookup(op[1])
				case 2:
					g, r = got.Invalidate(op[1]), ref.Invalidate(op[1])
				}
				if g != r {
					t.Fatalf("ways=%d sets=%d op %d (%d on block %d): got %v, oracle %v",
						ways, sets, i, op[0], op[1], g, r)
				}
			}
			if got.Hits != ref.Hits || got.Misses != ref.Misses ||
				got.Evictions != ref.Evictions || got.Invalidates != ref.Invalidates {
				t.Errorf("ways=%d sets=%d: counters hits/misses/evictions/invalidates = %d/%d/%d/%d, oracle %d/%d/%d/%d",
					ways, sets, got.Hits, got.Misses, got.Evictions, got.Invalidates,
					ref.Hits, ref.Misses, ref.Evictions, ref.Invalidates)
			}
		}
	}
}

// TestINCUntouchedPageAllocatesNothing: Lookup and Invalidate on a set
// whose tag page no Insert has reached answer miss and false without
// allocating it.
func TestINCUntouchedPageAllocatesNothing(t *testing.T) {
	c := newPaperINC(1 << 20)
	c.Insert(0)
	far := uint64(incPageSets * 5)
	allocs := testing.AllocsPerRun(10, func() {
		if c.Lookup(far) || c.Invalidate(far) {
			t.Error("untouched set reports a block")
		}
	})
	if allocs != 0 {
		t.Errorf("probing an untouched page allocates %.1f per round, want 0", allocs)
	}
	for p, tags := range c.pages {
		if (tags != nil) != (p == 0) {
			t.Errorf("tag page %d allocated = %v, want only page 0", p, tags != nil)
		}
	}
}
