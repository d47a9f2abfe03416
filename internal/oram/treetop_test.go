package oram

import (
	"reflect"
	"testing"

	"palermo/internal/otree"
	"palermo/internal/rng"
)

func ringWith(t *testing.T, seed, treeTopBytes uint64, countTraffic bool) *Ring {
	t.Helper()
	e, err := NewRing(RingConfig{
		NLines:       4096,
		Z:            4,
		S:            5,
		A:            3,
		PosLevels:    2,
		TreeTopBytes: treeTopBytes,
		Seed:         seed,
		Variant:      VariantPalermo,
		CountTraffic: countTraffic,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

type accessTrace struct {
	leaves []uint64
	vals   []uint64
	reads  []int
	writes []int
}

func driveRing(e *Ring, n int) accessTrace {
	r := rng.New(31)
	var tr accessTrace
	for i := 0; i < n; i++ {
		pa := r.Uint64n(4096)
		var plan *Plan
		if r.Float64() < 0.4 {
			plan = e.Access(pa, true, r.Uint64())
		} else {
			plan = e.Access(pa, false, 0)
		}
		tr.leaves = append(tr.leaves, plan.DataLeaf)
		tr.vals = append(tr.vals, plan.Val)
		tr.reads = append(tr.reads, plan.Reads())
		tr.writes = append(tr.writes, plan.Writes())
	}
	return tr
}

// TestCountTrafficParity: count-only mode must report exactly the traffic
// totals of address mode, access by access, while producing the identical
// protocol trajectory (leaves and values).
func TestCountTrafficParity(t *testing.T) {
	addr := driveRing(ringWith(t, 5, 0, false), 2000)
	cnt := driveRing(ringWith(t, 5, 0, true), 2000)
	for i := range addr.leaves {
		if addr.leaves[i] != cnt.leaves[i] || addr.vals[i] != cnt.vals[i] {
			t.Fatalf("access %d: protocol trajectory diverged between traffic modes", i)
		}
		if addr.reads[i] != cnt.reads[i] || addr.writes[i] != cnt.writes[i] {
			t.Fatalf("access %d: traffic totals diverged: addr r/w=%d/%d count r/w=%d/%d",
				i, addr.reads[i], addr.writes[i], cnt.reads[i], cnt.writes[i])
		}
	}
}

// TestPlanLifetime pins the plan-ownership contract of Ring.Access: a
// count-only engine refills one plan (so the serving path allocates
// nothing), an address-mode engine hands out plans that later accesses
// never touch (timing controllers replay them long after).
func TestPlanLifetime(t *testing.T) {
	cnt := ringWith(t, 5, 0, true)
	if a, b := cnt.Access(1, true, 7), cnt.Access(2, false, 0); a != b {
		t.Fatalf("count-only engine allocated a second plan")
	}
	if p := cnt.DummyAccess(); !p.Dummy || p.PA != 0 || p.Write {
		t.Fatalf("reused plan carries fields of the previous access: %+v", p)
	}

	addr := ringWith(t, 5, 0, false)
	first := addr.Access(1, true, 7)
	snapshot := Plan{ReqID: first.ReqID, PA: first.PA, Write: first.Write, Val: first.Val,
		FromStash: first.FromStash, DataLeaf: first.DataLeaf,
		StashAfter: append([]int(nil), first.StashAfter...)}
	for l := range first.Levels {
		la := LevelAccess{Level: first.Levels[l].Level, Evict: first.Levels[l].Evict}
		for _, ph := range first.Levels[l].Phases {
			ph.Reads = append([]uint64(nil), ph.Reads...)
			ph.Writes = append([]uint64(nil), ph.Writes...)
			la.Phases = append(la.Phases, ph)
		}
		snapshot.Levels = append(snapshot.Levels, la)
	}
	for i := uint64(0); i < 200; i++ {
		if p := addr.Access(i%64, i%3 == 0, i); p == first {
			t.Fatalf("address-mode engine reused a plan")
		}
	}
	if !reflect.DeepEqual(*first, snapshot) {
		t.Fatalf("a retained address-mode plan changed under later accesses")
	}
}

// treeTopBudgets are the TreeTopBytes the neutrality tests sweep: none,
// budgets that keep exactly the top 1, 2 and 4 levels of the data tree
// resident, and the serving engine's 256 KiB (Table III).
func treeTopBudgets(t *testing.T) []uint64 {
	t.Helper()
	g := ringWith(t, 1, 0, false).Space(0).Geo
	budgets := []uint64{0}
	for _, k := range []int{1, 2, 4} {
		var b uint64
		for l := 0; l < k; l++ {
			b += (uint64(1) << l) * uint64(g.Levels[l].Slots()*g.SlotLines+1) * otree.BlockBytes
		}
		if got := otree.NewTreeTop(g, b).Levels(); got != k {
			t.Fatalf("budget %d keeps %d levels, want %d", b, got, k)
		}
		budgets = append(budgets, b)
	}
	return append(budgets, 256<<10)
}

// TestTreeTopBytesNeutral: the tree-top cache gates traffic emission only.
// Any budget must leave the attacker-visible leaf sequence, returned
// values, and exported engine state bit-identical; only DRAM traffic
// shrinks, and never grows with a larger budget.
func TestTreeTopBytesNeutral(t *testing.T) {
	base := ringWith(t, 9, 0, false)
	bt := driveRing(base, 2000)
	baseState := base.State()
	prevTraffic := -1
	for _, budget := range treeTopBudgets(t)[1:] {
		e := ringWith(t, 9, budget, false)
		tr := driveRing(e, 2000)
		total := 0
		for i := range bt.leaves {
			if bt.leaves[i] != tr.leaves[i] {
				t.Fatalf("budget %d access %d: leaf sequence diverged (obliviousness-neutrality broken)", budget, i)
			}
			if bt.vals[i] != tr.vals[i] {
				t.Fatalf("budget %d access %d: value diverged", budget, i)
			}
			if tr.reads[i] > bt.reads[i] || tr.writes[i] > bt.writes[i] {
				t.Fatalf("budget %d access %d: cached config emitted MORE traffic", budget, i)
			}
			total += tr.reads[i] + tr.writes[i]
		}
		if !reflect.DeepEqual(e.State(), baseState) {
			t.Fatalf("budget %d: exported engine state diverged from no cache", budget)
		}
		if e.TopHits() == 0 {
			t.Fatalf("budget %d: no cache hits recorded", budget)
		}
		if prevTraffic >= 0 && total > prevTraffic {
			t.Fatalf("budget %d: traffic grew relative to smaller cache (%d > %d)", budget, total, prevTraffic)
		}
		prevTraffic = total
	}
}

// TestTreeTopHitsAccountTraffic: suppressed lines + emitted lines must equal
// the uncached line totals exactly at every budget — the cache absorbs
// traffic, never loses it.
func TestTreeTopHitsAccountTraffic(t *testing.T) {
	bt := driveRing(ringWith(t, 13, 0, false), 1500)
	baseLines := 0
	for i := range bt.reads {
		baseLines += bt.reads[i] + bt.writes[i]
	}
	for _, budget := range treeTopBudgets(t)[1:] {
		cached := ringWith(t, 13, budget, true)
		ct := driveRing(cached, 1500)
		cachedLines := 0
		for i := range ct.reads {
			cachedLines += ct.reads[i] + ct.writes[i]
		}
		if got := cachedLines + int(cached.TopHits()); got != baseLines {
			t.Fatalf("budget %d: line accounting leak: emitted %d + absorbed %d = %d, want %d",
				budget, cachedLines, cached.TopHits(), got, baseLines)
		}
		if cached.TopHits() == 0 {
			t.Fatalf("budget %d: expected nonzero absorbed traffic", budget)
		}
	}
}

// TestTreeTopCheckpointAcrossConfigs: a checkpoint taken at one budget must
// restore into an engine built with another and continue with a
// bit-identical trajectory (mixed-config durable reopen).
func TestTreeTopCheckpointAcrossConfigs(t *testing.T) {
	budgets := treeTopBudgets(t)
	for i, from := range budgets {
		to := budgets[len(budgets)-1-i]
		a := ringWith(t, 21, from, false)
		driveRing(a, 800)
		reopened := ringWith(t, 99, to, true) // different seed: RNG state comes from the checkpoint
		if err := reopened.Restore(a.State()); err != nil {
			t.Fatal(err)
		}
		ta := driveRing(a, 400)
		tb := driveRing(reopened, 400)
		for j := range ta.leaves {
			if ta.leaves[j] != tb.leaves[j] || ta.vals[j] != tb.vals[j] {
				t.Fatalf("budget %d -> %d: access %d after restore diverged", from, to, j)
			}
		}
	}
}
