// Quickstart: generate a small community-rich graph, run parallel
// agglomerative community detection, and inspect the result.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	community "repro"
)

func main() {
	// A social-network-like graph with planted communities: ~10k members,
	// heavy-tailed community sizes, mostly-internal friendships.
	g, truth, err := community.LJSim(0, community.DefaultLJSim(10_000, 42))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d vertices, %d edges, %d planted communities\n",
		g.NumVertices(), g.NumEdges(), 1+max64(truth))

	// Detect communities. The zero Options maximize modularity with the
	// paper's improved kernels on all cores; MinCoverage: 0.5 reproduces
	// the paper's DIMACS-style early stop.
	res, err := community.Detect(context.Background(), g, community.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("detected %d communities in %d phases (stopped by %s)\n",
		res.NumCommunities, len(res.Stats), res.Termination)

	// Quality report: modularity, coverage, conductance, sizes.
	fmt.Println(community.Evaluate(0, g, res.CommunityOf, res.NumCommunities))

	// Optional refinement pass (the paper's future-work extension) to
	// recover quality lost to greedy whole-community merges.
	ref, err := community.Refine(g, res.CommunityOf, res.NumCommunities, community.RefineOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("refinement: modularity %.4f -> %.4f in %d sweeps\n",
		ref.ModularityBefore, ref.ModularityAfter, ref.Sweeps)
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
