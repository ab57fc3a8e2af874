// Social-network scenario: the paper's soc-LiveJournal1 experiment on the
// synthetic stand-in. Runs the parallel engine with the paper's coverage
// termination, compares quality and speed against the sequential CNM and
// Louvain baselines, and checks how well the detected communities recover
// the planted ground truth (NMI / ARI / pair-F1).
//
//	go run ./examples/socialnetwork [-n 100000] [-seed 7]
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
	n := flag.Int64("n", 100_000, "number of members (paper: 4.8M)")
	seed := flag.Uint64("seed", 7, "generator seed")
	flag.Parse()

	fmt.Printf("generating lj-sim with %d members...\n", *n)
	g, truth, err := community.LJSim(0, community.DefaultLJSim(*n, *seed))
	if err != nil {
		log.Fatal(err)
	}
	truthDense, truthK := community.Densify(truth)
	fmt.Printf("graph: |V|=%d |E|=%d, %d planted communities, ground-truth modularity %.4f\n",
		g.NumVertices(), g.NumEdges(), truthK,
		community.Modularity(0, g, truthDense, truthK))

	// Parallel agglomerative detection with the paper's termination rule.
	start := time.Now()
	res, err := community.Detect(context.Background(), g, community.Options{MinCoverage: 0.5})
	if err != nil {
		log.Fatal(err)
	}
	parTime := time.Since(start)
	fmt.Printf("\nparallel engine: %d communities in %v (%.3g edges/s), Q=%.4f coverage=%.4f\n",
		res.NumCommunities, parTime.Round(time.Millisecond),
		float64(g.NumEdges())/parTime.Seconds(), res.FinalModularity, res.FinalCoverage)
	report(res.CommunityOf, res.NumCommunities, truthDense, truthK)

	// Refinement extension (§II future work).
	ref, err := community.Refine(g, res.CommunityOf, res.NumCommunities, community.RefineOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwith refinement pass: Q=%.4f (%d moves, %d sweeps)\n",
		ref.ModularityAfter, ref.Moves, ref.Sweeps)
	report(ref.CommunityOf, ref.NumCommunities, truthDense, truthK)

	// Per-phase refinement integration: best quality the library offers.
	start = time.Now()
	multi, err := community.Detect(context.Background(), g, community.Options{RefineEveryPhase: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrefine-every-phase engine: %d communities in %v, Q=%.4f\n",
		multi.NumCommunities, time.Since(start).Round(time.Millisecond), multi.FinalModularity)
	report(multi.CommunityOf, multi.NumCommunities, truthDense, truthK)

	// Sequential baselines (the role SNAP plays in §V).
	start = time.Now()
	lou := community.Louvain(g, *seed)
	fmt.Printf("\nlouvain (sequential): %d communities in %v, Q=%.4f\n",
		lou.NumCommunities, time.Since(start).Round(time.Millisecond), lou.Modularity)
	report(lou.CommunityOf, lou.NumCommunities, truthDense, truthK)
	if g.NumEdges() <= 2_000_000 {
		start = time.Now()
		cnm := community.CNM(g)
		fmt.Printf("\ncnm (sequential): %d communities in %v, Q=%.4f\n",
			cnm.NumCommunities, time.Since(start).Round(time.Millisecond), cnm.Modularity)
		report(cnm.CommunityOf, cnm.NumCommunities, truthDense, truthK)
	}
}

// report prints ground-truth agreement for one partition.
func report(comm []int64, k int64, truth []int64, kTruth int64) {
	a, err := community.Compare(comm, k, truth, kTruth)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  ground-truth agreement: NMI=%.3f ARI=%.3f pairF1=%.3f\n",
		a.NMI, a.ARI, a.PairF1)
}
