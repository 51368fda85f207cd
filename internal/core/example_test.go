package core_test

import (
	"fmt"

	"ocpmesh/internal/core"
	"ocpmesh/internal/grid"
)

// The paper's Section 3 example: three faults on a 5x5 mesh become one
// 3x3 faulty block, and the enabled/disabled phase shrinks it to two
// disabled regions covering only the faults.
func ExampleForm() {
	res, err := core.Form(core.Config{Width: 5, Height: 5}, []grid.Point{
		grid.Pt(1, 3), grid.Pt(2, 1), grid.Pt(3, 2),
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("faulty block: %v\n", res.Blocks[0].Bounds())
	for i, r := range res.Regions {
		fmt.Printf("disabled region %d: %v\n", i, r.Nodes().Points())
	}
	ratio, _ := res.EnabledRatio()
	fmt.Printf("reactivated ratio: %.0f%%\n", 100*ratio)
	// Output:
	// faulty block: [1..3]x[1..3]
	// disabled region 0: [(2,1) (3,2)]
	// disabled region 1: [(1,3)]
	// reactivated ratio: 100%
}

func ExampleResult_Render() {
	res, err := core.Form(core.Config{Width: 5, Height: 5}, []grid.Point{
		grid.Pt(1, 3), grid.Pt(2, 1), grid.Pt(3, 2),
	})
	if err != nil {
		panic(err)
	}
	fmt.Print(res.Render())
	// Output:
	// .....
	// .#++.
	// .++#.
	// .+#+.
	// .....
}
