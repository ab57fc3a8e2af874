// Web-graph scenario: the paper's uk-2007-05 data-scalability experiment on
// the synthetic crawl stand-in. Shows the per-phase behavior of the engine
// on a large skewed graph — community graph shrinkage, coverage growth, and
// the per-primitive time breakdown the paper discusses in §IV-C — plus the
// processing rate that Table III reports.
//
//	go run ./examples/webgraph [-n 400000]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	community "repro"
)

func main() {
	n := flag.Int64("n", 400_000, "number of pages (paper: 105.9M)")
	seed := flag.Uint64("seed", 3, "generator seed")
	flag.Parse()

	fmt.Printf("generating uk-sim with %d pages...\n", *n)
	g, hosts, err := community.WebCrawl(0, community.DefaultWebCrawl(*n, *seed))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: |V|=%d |E|=%d across %d hosts\n",
		g.NumVertices(), g.NumEdges(), 1+max64(hosts))

	start := time.Now()
	res, err := community.Detect(context.Background(), g, community.Options{MinCoverage: 0.5})
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	fmt.Println("\nphase  vertices      edges   coverage  score%  match%  contract%")
	for _, st := range res.Stats {
		total := st.ScoreTime + st.MatchTime + st.ContractTime
		fmt.Printf("%5d  %8d  %9d     %6.4f  %5.1f%%  %5.1f%%  %8.1f%%\n",
			st.Phase, st.Vertices, st.Edges, st.Coverage,
			pct(st.ScoreTime, total), pct(st.MatchTime, total), pct(st.ContractTime, total))
	}
	fmt.Printf("\n%d communities in %v, terminated by %s\n",
		res.NumCommunities, elapsed.Round(time.Millisecond), res.Termination)
	fmt.Printf("processing rate: %.3g input edges/second (Table III's metric)\n",
		float64(g.NumEdges())/elapsed.Seconds())
	fmt.Println(community.Evaluate(0, g, res.CommunityOf, res.NumCommunities))
}

func pct(part, total time.Duration) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(part) / float64(total)
}

func max64(xs []int64) int64 {
	var m int64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
