package buck

import (
	"context"
	"math"
	"testing"

	"repro/internal/emi"
)

func predictCM(t *testing.T, yCapK float64, mutate func(find func(string) float64, set func(string, float64))) *emi.Spectrum {
	t.Helper()
	p, err := CMProject(yCapK)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if mutate != nil {
		mutate(
			func(name string) float64 { return p.Circuit.Find(name).Value },
			func(name string, v float64) { p.Circuit.Find(name).Value = v },
		)
	}
	s, err := (&emi.Predictor{
		Circuit:     p.Circuit,
		Sources:     p.Sources,
		MeasureNode: p.MeasureNode,
	}).SpectrumCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestHeatsinkCapacitancePlausible(t *testing.T) {
	t.Parallel()
	c := HeatsinkCapacitance()
	// D2PAK on a thermal pad: tens of pF.
	if c < 5e-12 || c > 100e-12 {
		t.Errorf("heatsink capacitance = %v F", c)
	}
}

func TestCMPathRequiresParasitic(t *testing.T) {
	t.Parallel()
	// Shrinking the heatsink capacitance to nothing must remove the
	// common-mode emissions entirely: the path IS the parasitic.
	sWith := predictCM(t, 0, nil)
	sWithout := predictCM(t, 0, func(_ func(string) float64, set func(string, float64)) {
		set("Cpar", 1e-18)
	})
	_, with := sWith.InBand(5e6, 108e6).Max()
	_, without := sWithout.InBand(5e6, 108e6).Max()
	if with < without+60 {
		t.Errorf("CM path not dominated by Cpar: %v vs %v dBµV", with, without)
	}
}

func TestCMChokeEssential(t *testing.T) {
	t.Parallel()
	// Collapsing the choke inductance must raise CM emissions massively.
	sChoke := predictCM(t, 0, nil)
	sNoChoke := predictCM(t, 0, func(_ func(string) float64, set func(string, float64)) {
		set("Lcma", 1e-9)
		set("Lcmb", 1e-9)
	})
	_, with := sChoke.InBand(150e3, 30e6).Max()
	_, without := sNoChoke.InBand(150e3, 30e6).Max()
	if without < with+20 {
		t.Errorf("CM choke should buy > 20 dB: %v vs %v dBµV", without, with)
	}
}

func TestYCapPlacementDegradesFilter(t *testing.T) {
	t.Parallel()
	// The Figure 8 effect in circuit terms: a Y-capacitor sitting in the
	// choke's stray field (coupling factor a few hundredths) degrades the
	// high-frequency CM filtering.
	sGood := predictCM(t, 0, nil)
	sBad := predictCM(t, 0.03, nil)
	_, good := sGood.InBand(5e6, 108e6).Max()
	_, bad := sBad.InBand(5e6, 108e6).Max()
	if bad < good+8 {
		t.Errorf("bad Y-cap position should cost > 8 dB: %v vs %v dBµV", bad, good)
	}
	// Below a few MHz the choke's bulk inductance dominates and the
	// placement barely matters.
	_, goodLF := sGood.InBand(150e3, 2e6).Max()
	_, badLF := sBad.InBand(150e3, 2e6).Max()
	if math.Abs(goodLF-badLF) > 1.5 {
		t.Errorf("LF should be placement-insensitive: %v vs %v dBµV", goodLF, badLF)
	}
}

func TestYCapPositionCouplingProfile(t *testing.T) {
	t.Parallel()
	// The position scan around the 2-winding choke feeds the circuit k:
	// decoupled positions exist (k ≈ 0) and unfavourable ones reach a
	// measurable fraction of a percent.
	min, max := math.Inf(1), 0.0
	for deg := 0; deg < 360; deg += 30 {
		k := YCapPositionCoupling(float64(deg) * math.Pi / 180)
		if k < min {
			min = k
		}
		if k > max {
			max = k
		}
	}
	if max <= 0 {
		t.Fatal("no coupling anywhere")
	}
	if min > 0.02*max {
		t.Errorf("no decoupled position found: min/max = %v", min/max)
	}
}

func TestCMProjectStructure(t *testing.T) {
	t.Parallel()
	p, err := CMProject(0)
	if err != nil {
		t.Fatal(err)
	}
	// Two LISNs present and intact.
	for _, prefix := range []string{"lisnp", "lisnn"} {
		if err := emi.ValidateLISN(p.Circuit, prefix); err != nil {
			t.Error(err)
		}
	}
	if p.MeasureNode != "lisnp_meas" {
		t.Errorf("measure node = %q", p.MeasureNode)
	}
	// The CM choke winding coupling is in place.
	k := p.Circuit.Find("Kcm")
	if k == nil || k.Coup != CMChokeK {
		t.Errorf("Kcm = %+v", k)
	}
}
