// Pregel comparison scenario: §VI of the paper observes that the
// algorithm's primitives map onto other execution models, naming sparse
// matrix algebra (Combinatorial BLAS) and Pregel-style cloud processing.
// This example runs all three formulations shipped in the library on one
// workload and compares them:
//
//   - the direct bucketed engine (the paper's contribution),
//
//   - label-propagation community detection as a BSP vertex program,
//
//   - the algebraic SᵀAS contraction cross-checked against the direct one.
//
//     go run ./examples/pregelcompare [-n 20000]
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
	n := flag.Int64("n", 20_000, "number of members")
	seed := flag.Uint64("seed", 5, "generator seed")
	flag.Parse()

	g, truth, err := community.LJSim(0, community.DefaultLJSim(*n, *seed))
	if err != nil {
		log.Fatal(err)
	}
	truthD, truthK := community.Densify(truth)
	fmt.Printf("graph: |V|=%d |E|=%d, %d planted communities\n\n",
		g.NumVertices(), g.NumEdges(), truthK)

	// 1. The paper's engine.
	start := time.Now()
	res, err := community.Detect(context.Background(), g, community.Options{MinCoverage: 0.5})
	if err != nil {
		log.Fatal(err)
	}
	engTime := time.Since(start)
	engA, _ := community.Compare(res.CommunityOf, res.NumCommunities, truthD, truthK)
	fmt.Printf("agglomerative engine:   %4d communities  Q=%.4f  NMI=%.3f  %v\n",
		res.NumCommunities, res.FinalModularity, engA.NMI, engTime.Round(time.Millisecond))

	// 2. Label propagation as a Pregel program.
	start = time.Now()
	lpaComm, lpaK, steps, err := community.LabelPropagation(0, g, 0)
	if err != nil {
		log.Fatal(err)
	}
	lpaTime := time.Since(start)
	lpaQ := community.Modularity(0, g, lpaComm, lpaK)
	lpaA, _ := community.Compare(lpaComm, lpaK, truthD, truthK)
	fmt.Printf("BSP label propagation:  %4d communities  Q=%.4f  NMI=%.3f  %v (%d supersteps)\n",
		lpaK, lpaQ, lpaA.NMI, lpaTime.Round(time.Millisecond), steps)

	// 3. Connected components both ways: direct kernel vs BSP program.
	start = time.Now()
	directComp, directK := community.Components(0, g)
	directTime := time.Since(start)
	start = time.Now()
	bspComp, bspSteps, err := community.BSPConnectedComponents(0, g)
	if err != nil {
		log.Fatal(err)
	}
	bspTime := time.Since(start)
	same := true
	for v := range directComp {
		if directComp[v] != bspComp[v] {
			same = false
			break
		}
	}
	fmt.Printf("\ncomponents: direct kernel %v, BSP program %v (%d supersteps), %d components, identical=%v\n",
		directTime.Round(time.Millisecond), bspTime.Round(time.Millisecond), bspSteps, directK, same)

	// 4. Algebraic SᵀAS contraction of the detected partition vs direct.
	a, err := community.ContractAlgebraic(0, g, res.CommunityOf, res.NumCommunities)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nSᵀAS community graph: |V|=%d |E|=%d, total weight preserved=%v\n",
		a.NumVertices(), a.NumEdges(), a.TotalWeight(0) == g.TotalWeight(0))
}
