// Hierarchy scenario: the agglomerative engine builds a community hierarchy
// level by level — every contraction phase is one level of a dendrogram.
// This example detects communities on Zachary's karate club, walks the
// dendrogram, cuts it at a target community count, and unfolds one
// community back into its members — the "smaller communities ... analyzed
// more thoroughly" use case from the paper's introduction.
//
//	go run ./examples/hierarchy
package main

import (
	"context"
	"fmt"
	"log"

	community "repro"
)

func main() {
	g := community.Karate()
	fmt.Printf("Zachary's karate club: %d members, %d friendships\n\n",
		g.NumVertices(), g.NumEdges())

	res, err := community.Detect(context.Background(), g, community.Options{})
	if err != nil {
		log.Fatal(err)
	}
	dendro, err := community.NewDendrogram(g.NumVertices(), res.Levels)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("level  communities  modularity")
	for l := 0; l <= dendro.NumLevels(); l++ {
		comm, k, err := dendro.AtLevel(l)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%5d  %11d  %10.4f\n", l, k, community.Modularity(0, g, comm, k))
	}

	// Cut the dendrogram where at most 8 communities remain.
	comm, k, level := dendro.CutAtCount(8)
	fmt.Printf("\ncut at ≤8 communities: level %d with %d communities (Q=%.4f)\n",
		level, k, community.Modularity(0, g, comm, k))

	fmt.Printf("\nfinal: %d communities (%s)\n", res.NumCommunities, res.Termination)
	for c := int64(0); c < res.NumCommunities; c++ {
		members, err := dendro.Members(dendro.NumLevels(), c)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("community %d (%d members): %v\n", c, len(members), members)
	}

	// Trace one member's path up the hierarchy.
	trace, err := dendro.TraceVertex(33) // the instructor's rival
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nvertex 33 community by level: %v\n", trace)

	// Unfold one community and analyze it in isolation: induce its subgraph
	// and re-run detection inside it.
	fmt.Println("\nzooming into community 0:")
	sub, subIDs := induce(g, res.CommunityOf, 0)
	subRes, err := community.Detect(context.Background(), sub, community.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %d members split into %d sub-communities\n",
		sub.NumVertices(), subRes.NumCommunities)
	for v, c := range subRes.CommunityOf {
		fmt.Printf("  member %2d -> sub-community %d\n", subIDs[v], c)
	}
}

// induce extracts the subgraph of community c with renumbered vertices and
// returns it with the original vertex ids.
func induce(g *community.Graph, comm []int64, c int64) (*community.Graph, []int64) {
	newID := make(map[int64]int64)
	var orig []int64
	for v, cc := range comm {
		if cc == c {
			newID[int64(v)] = int64(len(orig))
			orig = append(orig, int64(v))
		}
	}
	var edges []community.Edge
	for _, e := range g.Edges() {
		if comm[e.U] == c && comm[e.V] == c {
			edges = append(edges, community.Edge{U: newID[e.U], V: newID[e.V], W: e.W})
		}
	}
	sub, err := community.Build(0, int64(len(orig)), edges)
	if err != nil {
		log.Fatal(err)
	}
	return sub, orig
}
