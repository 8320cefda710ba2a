package cluster

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Metrics federation: the router's GET /metrics re-exports every
// member's series with a replica="name" label injected, so one scrape
// of the router observes the whole cluster. Families are regrouped so
// every series of one family stays contiguous (the text exposition
// format requires it) and HELP/TYPE headers are deduped across members
// (first member to declare a family wins).

const (
	// scrapeTimeout bounds each member scrape; a slow member must not
	// stall the whole federation response.
	scrapeTimeout = 2 * time.Second
	// scrapeBodyCap bounds one member's exposition body.
	scrapeBodyCap = 4 << 20
)

// promFamily is one metric family reassembled across members.
type promFamily struct {
	header  []string // the HELP and TYPE comment lines
	samples []string // relabeled sample lines, in member order
}

// federate scrapes every non-Down member's /metrics concurrently and
// writes the relabeled union, preceded by a per-member scrape_ok gauge
// so a partial view is visible as such rather than silently short.
func (rt *Router) federate(ctx context.Context, w io.Writer) {
	type scrape struct {
		name string
		body string
		ok   bool
	}
	members := rt.sortedMembers()
	results := make([]scrape, len(members))
	var wg sync.WaitGroup
	for i, h := range members {
		results[i].name = h.Name
		if h.State == StateDown {
			continue
		}
		wg.Add(1)
		go func(i int, h MemberHealth) {
			defer wg.Done()
			sctx, cancel := context.WithTimeout(ctx, scrapeTimeout)
			defer cancel()
			req, err := http.NewRequestWithContext(sctx, http.MethodGet, h.URL+"/metrics", nil)
			if err != nil {
				return
			}
			resp, err := rt.client.Do(req)
			if err != nil {
				return
			}
			defer drainClose(resp)
			if resp.StatusCode != http.StatusOK {
				return
			}
			b, err := io.ReadAll(io.LimitReader(resp.Body, scrapeBodyCap))
			if err != nil {
				return
			}
			results[i].body, results[i].ok = string(b), true
		}(i, h)
	}
	wg.Wait()

	bw := bufio.NewWriter(w)
	var scrapes obs.Registry
	obs.GaugeVec(&scrapes, "emiserve_cluster_scrape_ok", "Whether the federation scrape of each member succeeded.", "replica", func(emit func(string, int)) {
		for _, sc := range results {
			v := 0
			if sc.ok {
				v = 1
			}
			emit(sc.name, v)
		}
	})
	_ = scrapes.WriteProm(bw)

	var order []string
	families := map[string]*promFamily{}
	famOf := func(name string) *promFamily {
		if f, ok := families[name]; ok {
			return f
		}
		f := &promFamily{}
		families[name] = f
		order = append(order, name)
		return f
	}
	for _, sc := range results {
		if !sc.ok {
			continue
		}
		// Families whose HELP/TYPE this member contributed — once a
		// member owns a family's header it also supplies the TYPE line.
		owned := map[string]bool{}
		for _, line := range strings.Split(sc.body, "\n") {
			line = strings.TrimRight(line, "\r")
			if line == "" {
				continue
			}
			if strings.HasPrefix(line, "#") {
				fields := strings.Fields(line)
				if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
					continue
				}
				f := famOf(fields[2])
				if len(f.header) == 0 || owned[fields[2]] {
					f.header = append(f.header, line)
					owned[fields[2]] = true
				}
				continue
			}
			name := line
			if i := strings.IndexAny(line, "{ "); i >= 0 {
				name = line[:i]
			}
			// Histogram series (_bucket/_sum/_count) group under their
			// declared base family.
			base := name
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if t := strings.TrimSuffix(name, suf); t != name {
					if _, ok := families[t]; ok {
						base = t
						break
					}
				}
			}
			famOf(base).samples = append(famOf(base).samples, injectReplica(line, sc.name))
		}
	}
	for _, name := range order {
		f := families[name]
		for _, h := range f.header {
			fmt.Fprintln(bw, h)
		}
		for _, s := range f.samples {
			fmt.Fprintln(bw, s)
		}
	}
	_ = bw.Flush()
}

// injectReplica adds a replica="name" label to one sample line,
// whether or not the line already carries a label set.
func injectReplica(line, replica string) string {
	label := fmt.Sprintf("replica=%q", replica)
	if i := strings.IndexByte(line, '{'); i >= 0 {
		sp := strings.IndexByte(line, ' ')
		if sp < 0 || i < sp {
			if strings.HasPrefix(line[i+1:], "}") {
				return line[:i+1] + label + line[i+1:]
			}
			return line[:i+1] + label + "," + line[i+1:]
		}
	}
	i := strings.IndexByte(line, ' ')
	if i < 0 {
		return line
	}
	return line[:i] + "{" + label + "}" + line[i:]
}
