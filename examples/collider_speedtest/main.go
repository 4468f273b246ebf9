// collider_speedtest demonstrates the paper's speed-test selection bias: in
// a world where route changes provably do NOT degrade performance, a
// dataset consisting only of user-initiated tests shows a strong (negative,
// explain-away) association between route changes and degradation — purely
// because both make users more likely to run a test.
//
// Run with: go run ./examples/collider_speedtest
package main

import (
	"context"
	"fmt"
	"log"

	"sisyphus/internal/causal/dag"
	"sisyphus/internal/experiments"
)

func main() {
	// First, the graphical warning — available before collecting anything.
	g := dag.MustParse("RouteChange -> TestRan; Degradation -> TestRan")
	fmt.Println("planning DAG:", "RouteChange -> TestRan <- Degradation")
	for _, w := range g.SelectionBiasWarnings([]string{"TestRan"}) {
		fmt.Printf("warning: conditioning on %q opens a spurious %s — %s association\n",
			w.Mid, w.Left, w.Right)
	}
	fmt.Println()

	res, err := experiments.RunCollider(context.Background(), 42, 3000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Render())
	fmt.Println("The fix (§4): tag measurements with intent, keep a scheduled baseline,")
	fmt.Println("and analyze user-initiated samples as what they are — a selected sample.")
}
