// Memwall reproduces the paper's Section 2 motivation on demand: the
// SparcStation-5 versus SparcStation-10/61 latency surface (Figure 2)
// and the Synopsys-style run-time estimate (Table 1), showing how a
// "slower" machine with an integrated memory controller beats a
// "faster" one once the working set escapes the caches.
//
// Run with:
//
//	go run ./examples/memwall
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/internal/experiments"
	"repro/internal/sweep"
)

// run builds the named experiment from the registry and runs its units
// on a one-worker sweep engine.
func run(name string, opts experiments.Options) interface{} {
	j, err := experiments.JobFor(name, opts, experiments.NewMeasurementSet(opts))
	if err != nil {
		log.Fatal(err)
	}
	var v interface{}
	if err := (&sweep.Engine{Workers: 1}).Run(context.Background(), []sweep.Job{j}, func(r sweep.JobResult) error {
		v = r.Value
		return nil
	}); err != nil {
		log.Fatal(err)
	}
	return v
}

func main() {
	opts := experiments.Quick()

	fig2 := run("fig2", opts).(*experiments.Fig2Result)
	fig2.Table().Render(os.Stdout)

	t1 := run("table1", opts).(*experiments.Table1Result)
	t1.Table().Render(os.Stdout)

	ss5 := t1.Rows[0]
	ss10 := t1.Rows[1]
	fmt.Printf("SPEC'92 says the SS-10/61 is %.2fx faster;", ss10.SpecInt92/ss5.SpecInt92)
	fmt.Printf(" on the >50 MB workload the SS-5 is %.2fx faster.\n",
		ss10.ModelNsPerInst/ss5.ModelNsPerInst)
	fmt.Println("That inversion is the memory wall the paper is pointing at.")
}
