// Monte-Carlo tolerance yield: the paper promises "a statement on
// achievable performance with the given components" — this example makes
// that statement statistical. Component values scatter within their
// tolerances and the extracted coupling factors within the PEEC model
// error; each sample is predicted against the CISPR 25 limits.
//
//	go run ./examples/yield
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/buck"
	"repro/internal/core"
	"repro/internal/explore"
)

func main() {
	// Unfavourable layout.
	unfav := buck.Project()
	if err := buck.Unfavorable(unfav); err != nil {
		log.Fatal(err)
	}
	if _, err := buck.DeriveAllRules(unfav, 0.01, 3, 0.01); err != nil {
		log.Fatal(err)
	}

	// Optimised layout with the same rules.
	opt := buck.Project()
	opt.Design.Rules = unfav.Design.Rules
	if _, err := buck.Optimize(opt); err != nil {
		log.Fatal(err)
	}

	mc := explore.YieldOptions{
		Samples:     80,
		Seed:        2008,
		DefaultTol:  0.10, // ±10 % component values
		CouplingTol: 0.20, // ±20 % extracted coupling factors
		MaxFreq:     30e6,
	}
	fmt.Printf("Monte-Carlo: %d samples, ±%.0f%% RLC, ±%.0f%% coupling\n\n",
		mc.Samples, mc.DefaultTol*100, mc.CouplingTol*100)

	for _, v := range []struct {
		name string
		p    *core.Project
	}{{"unfavourable placement", unfav}, {"optimized placement", opt}} {
		y, err := explore.Yield(context.Background(), v.p, mc, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-24s yield %5.1f%%   worst margin p10 %+6.1f dB, median %+6.1f dB, p90 %+6.1f dB\n",
			v.name, y.Yield*100,
			y.Percentile(0.1), y.Percentile(0.5), y.Percentile(0.9))
	}
	fmt.Println("\nThe placement decides the pass statistics before a single component")
	fmt.Println("tolerance is tightened — the paper's cost argument in numbers.")
}
