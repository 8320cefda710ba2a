package sensitivity

import (
	"context"
	"testing"

	"repro/internal/emi"
	"repro/internal/netlist"
)

// filterCircuit builds a two-stage filter behind a LISN where the coupling
// between the two capacitor ESLs (Lc1/Lc2) bridges the whole filter, while
// coupling into the source-side loop inductor matters much less.
func filterCircuit() *netlist.Circuit {
	c := &netlist.Circuit{Title: "sensitivity test"}
	c.AddV("Vbat", "bat", "0", netlist.Source{DC: 12})
	emi.AddLISN(c, "lisn", "bat", "vin")
	c.AddC("C1", "vin", "c1x", 1e-6)
	c.AddL("Lc1", "c1x", "0", 15e-9)
	c.AddL("Lfilt", "vin", "vdd", 22e-6)
	c.AddC("C2", "vdd", "c2x", 1e-6)
	c.AddL("Lc2", "c2x", "0", 15e-9)
	c.AddV("Vsw", "sw", "0", netlist.Source{Pulse: &netlist.Pulse{
		V1: 0, V2: 12, Rise: 30e-9, Fall: 30e-9, Width: 2e-6, Period: 5e-6,
	}})
	c.AddL("Lloop", "sw", "swl", 50e-9)
	c.AddR("Rloop", "swl", "vdd", 0.2)
	return c
}

func TestRankFindsCriticalPair(t *testing.T) {
	t.Parallel()
	ckt := filterCircuit()
	rank, err := RankCtx(context.Background(), ckt, "Vsw", "lisn_meas", Options{
		ProbeK:     0.01,
		MaxFreq:    50e6,
		Candidates: []string{"Lc1", "Lc2", "Lloop"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rank) != 3 {
		t.Fatalf("rank size = %d, want 3 pairs", len(rank))
	}
	// Sorted descending.
	for i := 1; i < len(rank); i++ {
		if rank[i].DeltaDB > rank[i-1].DeltaDB {
			t.Error("ranking not sorted")
		}
	}
	// The paper: "components on positions with low interference levels are
	// affected by magnetic stray fields of components with high
	// interference levels". Lc1 sits on the quiet LISN side, so both pairs
	// coupling noise across the filter into Lc1 must dominate, while the
	// pair entirely on the noisy side (Lc2/Lloop) must rank last and be
	// orders of magnitude weaker.
	for _, p := range rank[:2] {
		if p.LA != "Lc1" && p.LB != "Lc1" {
			t.Errorf("top pairs should involve the quiet-side Lc1; ranking: %+v", rank)
		}
		if p.DeltaDB < 6 {
			t.Errorf("top influence = %.1f dB, expected substantial", p.DeltaDB)
		}
	}
	last := rank[len(rank)-1]
	if !(last.LA == "Lc2" && last.LB == "Lloop") {
		t.Errorf("noisy-side pair should rank last; ranking: %+v", rank)
	}
	if last.DeltaDB > rank[0].DeltaDB/4 {
		t.Errorf("noisy-side pair influence %.1f dB not well below top %.1f dB",
			last.DeltaDB, rank[0].DeltaDB)
	}
}

func TestRankDoesNotMutateCircuit(t *testing.T) {
	t.Parallel()
	ckt := filterCircuit()
	before := len(ckt.Elements)
	_, err := RankCtx(context.Background(), ckt, "Vsw", "lisn_meas", Options{
		MaxFreq:    20e6,
		Candidates: []string{"Lc1", "Lc2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ckt.Elements) != before {
		t.Error("Rank mutated the circuit")
	}
	for _, e := range ckt.Elements {
		if e.Kind == netlist.K {
			t.Error("probe coupling leaked into the circuit")
		}
	}
}

func TestRelevantThreshold(t *testing.T) {
	t.Parallel()
	r := Ranking{
		{LA: "a", LB: "b", DeltaDB: 12},
		{LA: "a", LB: "c", DeltaDB: 3},
		{LA: "b", LB: "c", DeltaDB: 0.2},
	}
	rel := r.Relevant(1)
	if len(rel) != 2 {
		t.Errorf("Relevant(1) = %d entries", len(rel))
	}
	if len(r.Relevant(100)) != 0 {
		t.Error("high threshold should prune all")
	}
	pairs := r.Pairs()
	if pairs[0] != [2]string{"a", "b"} {
		t.Errorf("Pairs = %v", pairs)
	}
}

func TestRankErrors(t *testing.T) {
	t.Parallel()
	ckt := filterCircuit()
	if _, err := RankCtx(context.Background(), ckt, "Vsw", "lisn_meas", Options{Candidates: []string{"Lc1"}}); err == nil {
		t.Error("single candidate should fail")
	}
	if _, err := RankCtx(context.Background(), ckt, "Vsw", "lisn_meas", Options{Candidates: []string{"Lc1", "nope"}}); err == nil {
		t.Error("unknown candidate should fail")
	}
	if _, err := RankCtx(context.Background(), ckt, "nope", "lisn_meas", Options{Candidates: []string{"Lc1", "Lc2"}}); err == nil {
		t.Error("unknown source should fail")
	}
}
