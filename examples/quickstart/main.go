// Quickstart: the smallest end-to-end tour of the library.
//
// Two filter capacitors sit behind a LISN. We predict the conducted
// emissions with and without their magnetic coupling, derive the placement
// rule that keeps the coupling harmless, and check a good and a bad
// placement against it.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"repro/internal/components"
	"repro/internal/emi"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/peec"
	"repro/internal/rules"
)

func main() {
	// 1. A component model: 1.5 µF X2 film capacitor. Its ESL comes from
	// the PEEC current-loop model — no datasheet needed.
	cap := components.NewX2Cap("X2-1u5", 1.5e-6)
	fmt.Printf("X2 capacitor ESL from the PEEC loop model: %.1f nH\n\n", cap.EffectiveESL()*1e9)

	// 2. Coupling factor vs distance (the paper's Figure 5).
	a := &components.Instance{Ref: "C1", Model: cap}
	fmt.Println("distance   coupling factor")
	for _, mm := range []float64{20, 30, 40} {
		b := &components.Instance{Ref: "C2", Model: cap, Center: geom.V2(0, mm*1e-3)}
		k := components.CouplingFactor(a, b, peec.DefaultOrder)
		fmt.Printf("  %2.0f mm    %.4f\n", mm, math.Abs(k))
	}

	// 3. A filter circuit behind a CISPR 25 LISN, with the capacitors'
	// parasitic ESLs as coupling sites.
	ckt := &netlist.Circuit{Title: "quickstart filter"}
	ckt.AddV("Vbat", "bat", "0", netlist.Source{DC: 12})
	meas := emi.AddLISN(ckt, "lisn", "bat", "vin")
	ckt.AddC("C1", "vin", "x1", cap.C)
	ckt.AddL("Lc1", "x1", "0", cap.EffectiveESL())
	ckt.AddL("Lf", "vin", "vdd", 22e-6)
	ckt.AddC("C2", "vdd", "x2", cap.C)
	ckt.AddL("Lc2", "x2", "0", cap.EffectiveESL())
	ckt.AddV("Vsw", "sw", "0", netlist.Source{Pulse: &netlist.Pulse{
		V1: 0, V2: 12, Rise: 30e-9, Fall: 30e-9, Width: 2e-6, Period: 5e-6,
	}})
	ckt.AddL("Lloop", "sw", "swl", 40e-9)
	ckt.AddR("Rloop", "swl", "vdd", 0.2)

	predict := func(k float64) *emi.Spectrum {
		c := ckt.Clone()
		if k != 0 {
			c.SetCoupling("Lc1", "Lc2", k)
		}
		s, err := (&emi.Predictor{
			Circuit: c, Sources: []string{"Vsw"}, MeasureNode: meas, MaxFreq: 108e6,
		}).SpectrumCtx(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		return s
	}

	// A close parallel placement couples the caps with k ≈ 0.016.
	close := &components.Instance{Ref: "C2", Model: cap, Center: geom.V2(0, 0.02)}
	kClose := math.Abs(components.CouplingFactor(a, close, peec.DefaultOrder))
	sNo := predict(0)
	sYes := predict(kClose)
	_, hfNo := sNo.InBand(10e6, 108e6).Max()
	_, hfYes := sYes.InBand(10e6, 108e6).Max()
	fmt.Printf("\nHigh-frequency emissions without coupling: %5.1f dBµV\n", hfNo)
	fmt.Printf("With the k=%.4f of a 20 mm placement:      %5.1f dBµV  (+%.1f dB!)\n",
		kClose, hfYes, hfYes-hfNo)

	// 4. Derive the placement rule: minimum distance for k ≤ 0.01.
	pemd, err := rules.DerivePEMD(cap, cap, rules.DeriveOptions{KMax: 0.01})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nDerived placement rule: PEMD = %.1f mm at parallel axes\n", pemd*1e3)
	fmt.Printf("Rotated by 90°: EMD = %.1f mm — the parts may touch.\n",
		rules.EMD(pemd, math.Pi/2)*1e3)
}
