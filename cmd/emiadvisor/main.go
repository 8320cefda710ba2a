// Command emiadvisor is the interactive placement adviser in terminal
// form: it loads a design from the ASCII file interface and accepts
// editing commands on stdin, running the online design-rule check after
// every change — the paper's "online design rule checks visualize design
// rule violations immediately".
//
// Usage:
//
//	emiadvisor -in design.txt [-out placed.txt]
//
// Commands:
//
//	move <ref> <x_mm> <y_mm> <rot_deg>   apply a move (undoable)
//	try <ref> <x_mm> <y_mm> <rot_deg>    evaluate without applying
//	undo                                  revert the last move
//	report                                full DRC report
//	pairs                                 EMD pair status (red/green circles)
//	bbox                                  bounding box of the placed parts
//	auto                                  run the automatic placement method
//	legalize                              rip-up and re-place rule offenders
//	compact                               volume-minimisation pass
//	save <file>                           write the design
//	quit                                  exit
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/place"
)

func main() {
	in := flag.String("in", "", "input design file")
	out := flag.String("out", "", "design file written on quit")
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "emiadvisor: -in is required")
		os.Exit(2)
	}
	f, err := os.Open(*in)
	if err != nil {
		fatal(err)
	}
	d, err := layout.Read(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	if err := repl(d, os.Stdin, os.Stdout); err != nil {
		fatal(err)
	}
	if *out != "" {
		g, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		if err := layout.Write(g, d); err != nil {
			fatal(err)
		}
		if err := g.Close(); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", *out)
	}
}

// repl runs the command loop; split out for testing.
func repl(d *layout.Design, in io.Reader, out io.Writer) error {
	adv := place.NewAdviser(d)
	sc := bufio.NewScanner(in)
	fmt.Fprintf(out, "loaded %q: %d components, %d rules. Type 'help'.\n",
		d.Name, len(d.Comps), d.RuleCount())
	prompt := func() { fmt.Fprint(out, "> ") }
	prompt()
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			prompt()
			continue
		}
		switch strings.ToLower(fields[0]) {
		case "quit", "exit":
			return nil
		case "help":
			fmt.Fprintln(out, "commands: move try undo report pairs bbox auto legalize compact save quit")
		case "move", "try":
			if len(fields) != 5 {
				fmt.Fprintln(out, "usage: move|try <ref> <x_mm> <y_mm> <rot_deg>")
				break
			}
			x, errX := strconv.ParseFloat(fields[2], 64)
			y, errY := strconv.ParseFloat(fields[3], 64)
			deg, errR := strconv.ParseFloat(fields[4], 64)
			if errX != nil || errY != nil || errR != nil {
				fmt.Fprintln(out, "bad coordinates")
				break
			}
			pos := geom.V2(x*1e-3, y*1e-3)
			rot := geom.Rad(deg)
			var err error
			var rep interface{ Green() bool }
			if strings.EqualFold(fields[0], "move") {
				rep, err = adv.Move(fields[1], pos, rot)
			} else {
				rep, err = adv.Try(fields[1], pos, rot)
			}
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				break
			}
			if rep.Green() {
				fmt.Fprintln(out, "GREEN")
			} else {
				fmt.Fprintln(out, "RED")
			}
		case "undo":
			if adv.Undo() {
				fmt.Fprintln(out, "undone")
			} else {
				fmt.Fprintln(out, "nothing to undo")
			}
		case "report":
			fmt.Fprint(out, adv.Report())
		case "pairs":
			for _, p := range adv.Report().Pairs {
				mark := "GREEN"
				if !p.OK {
					mark = "RED"
				}
				fmt.Fprintf(out, "%-5s %s-%s need %.1f mm have %.1f mm\n",
					mark, p.RefA, p.RefB, p.Required*1e3, p.Actual*1e3)
			}
		case "bbox":
			bb := adv.BoundingBox(0)
			fmt.Fprintf(out, "%.1f × %.1f mm\n", bb.W()*1e3, bb.H()*1e3)
		case "auto":
			res, err := place.AutoPlace(d, place.Options{})
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				break
			}
			fmt.Fprintf(out, "placed %d components in %v\n", res.Placed, res.Elapsed)
		case "legalize":
			moved, err := place.LegalizeCtx(context.Background(), d, place.Options{})
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				break
			}
			fmt.Fprintf(out, "re-placed %d component(s): %v\n", len(moved), moved)
		case "compact":
			res, err := place.Compact(d, 0, 0)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				break
			}
			fmt.Fprintf(out, "%d moves, area %.1f → %.1f cm²\n",
				res.Moves, res.AreaBefore*1e4, res.AreaAfter*1e4)
		case "save":
			if len(fields) != 2 {
				fmt.Fprintln(out, "usage: save <file>")
				break
			}
			g, err := os.Create(fields[1])
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				break
			}
			if err := layout.Write(g, d); err != nil {
				fmt.Fprintln(out, "error:", err)
			}
			g.Close()
			fmt.Fprintln(out, "saved", fields[1])
		default:
			fmt.Fprintf(out, "unknown command %q (try 'help')\n", fields[0])
		}
		prompt()
	}
	return sc.Err()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "emiadvisor:", err)
	os.Exit(1)
}
