// Package inverter provides a second case study beyond the paper's buck
// converter: the common-mode emissions of a three-phase motor-drive
// inverter — the system class whose three-winding current-compensated
// choke the paper's Figure 8 discusses ("the three winding design
// generates almost rotating stray fields and therefore no decoupled
// position for adjacent components can be found").
//
// Three half-bridge legs switch the DC link with 120° interleave; each
// switch node pumps common-mode current through its device-tab capacitance
// to the grounded heatsink and through the motor-cable capacitances; the
// CM current returns through the two supply LISNs. A three-winding CM
// choke on the motor phases blocks the cable path.
package inverter

import (
	"context"
	"fmt"

	"repro/internal/components"
	"repro/internal/emi"
	"repro/internal/netlist"
)

// Operating point of the reference drive.
const (
	VDC     = 48.0
	FSwitch = 20e3 // typical drive PWM frequency
	Duty    = 0.5
	Rise    = 100e-9
	Fall    = 100e-9

	CMChokeL = 0.8e-3 // per-winding inductance
	CMChokeK = 0.95   // pairwise winding coupling
	CableCap = 1.5e-9 // per-phase motor-cable capacitance to chassis
	TabCap   = 60e-12 // per-device tab-to-heatsink capacitance
	StrapL   = 30e-9  // heatsink grounding strap
)

// Options selects circuit variants for the study.
type Options struct {
	Interleaved bool // 120° phase shift between the legs (the real drive)
	WithChoke   bool // three-winding CM choke on the motor phases
}

// Circuit builds the CM netlist of the drive. The measurement node of the
// positive-line LISN is returned alongside.
func Circuit(opt Options) (*netlist.Circuit, string) {
	c := &netlist.Circuit{Title: "three-phase inverter CM model"}
	c.AddV("Vdc", "batp", "batn", netlist.Source{DC: VDC})
	meas := emi.AddLISN(c, "lisnp", "batp", "dcp")
	emi.AddLISN(c, "lisnn", "batn", "dcn")
	// DC-link capacitor with parasitics.
	dcCap := components.NewElectrolytic("ELKO-470u", 470e-6)
	c.AddC("Cdc", "dcp", "dc1", dcCap.C)
	c.AddR("Rdc", "dc1", "dc2", dcCap.ESR)
	c.AddL("Ldc", "dc2", "dcn", dcCap.EffectiveESL())

	period := 1 / FSwitch
	phases := []string{"a", "b", "c"}
	for i, ph := range phases {
		delay := 0.0
		if opt.Interleaved {
			delay = float64(i) * period / 3
		}
		sw := "sw" + ph
		// Leg output voltage against the negative rail.
		c.AddV("Vleg"+ph, sw, "dcn", netlist.Source{Pulse: &netlist.Pulse{
			V1: 0, V2: VDC, Delay: delay,
			Rise: Rise, Fall: Fall,
			Width: Duty*period - Rise, Period: period,
		}})
		// Device tab to heatsink.
		c.AddC("Ctab"+ph, sw, "hs", TabCap)
		// Phase path to the motor cable.
		if opt.WithChoke {
			c.AddL("Lcm"+ph, sw, "ph"+ph, CMChokeL)
		} else {
			c.AddL("Lcm"+ph, sw, "ph"+ph, 10e-9) // just the lead
		}
		c.AddC("Ccab"+ph, "ph"+ph, "cb"+ph, CableCap)
		c.AddR("Rcab"+ph, "cb"+ph, "0", 2) // cable shield termination
	}
	if opt.WithChoke {
		// Current-compensated three-winding choke: pairwise coupling.
		c.AddK("Kab", "Lcma", "Lcmb", CMChokeK)
		c.AddK("Kbc", "Lcmb", "Lcmc", CMChokeK)
		c.AddK("Kca", "Lcmc", "Lcma", CMChokeK)
	}
	// Heatsink to chassis.
	c.AddL("Lhs", "hs", "0", StrapL)
	return c, meas
}

// Predict computes the conducted CM spectrum at the positive LISN.
func Predict(opt Options, maxFreq float64) (*emi.Spectrum, error) {
	ckt, meas := Circuit(opt)
	return (&emi.Predictor{
		Circuit:     ckt,
		Sources:     []string{"Vlega", "Vlegb", "Vlegc"},
		MeasureNode: meas,
		MaxFreq:     maxFreq,
	}).SpectrumCtx(context.Background())
}

// HarmonicLevel returns the level of harmonic k in dBµV.
func HarmonicLevel(s *emi.Spectrum, k int) (float64, error) {
	if k < 1 || k > len(s.DB) {
		return 0, fmt.Errorf("inverter: harmonic %d out of range", k)
	}
	return s.DB[k-1], nil
}
