// Customcpu shows the advanced API: feed a custom program's raw
// reference stream into cache models of your own choosing, and build a
// custom parallel workload against the coherent shared-memory machine.
//
// Run with:
//
//	go run ./examples/customcpu
package main

import (
	"fmt"
	"log"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/iram"
)

// A stencil kernel whose two streams collide in the 16-set column
// buffer cache (bases 8 KiB apart) — the tomcatv effect in miniature.
const src = `
	.text 0x1000
main:	li   r10, 0x1000000
	li   r11, 0x1004040        # 8 KiB + 64 B away: same proposed set
	li   r12, 0x1008080
	li   r2, 65536
loop:	ld   r4, 0(r10)
	ld   r5, 0(r11)
	ld   r6, 0(r12)
	fadd r7, r4, r5
	fadd r7, r7, r6
	addi r10, r10, 8
	addi r11, r11, 8
	addi r12, r12, 8
	addi r2, r2, -1
	bne  r2, zero, loop
	halt
`

func main() {
	prog, err := iram.Assemble(src)
	if err != nil {
		log.Fatal(err)
	}

	// Hand-picked cache organisations to compare.
	proposed := cache.NewWithVictim(core.Proposed().DCache()) // column buffers + victim
	plain, _ := core.Proposed().DCache()                      // column buffers only
	conv := cache.NewDirectMapped("conv 16KB", 16<<10, 32)

	if _, err := iram.RawRun(prog, cache.Replay{proposed, plain, conv}, 0); err != nil {
		log.Fatal(err)
	}

	fmt.Println("three colliding streams, data-cache miss rates:")
	fmt.Printf("  column buffers only:        %6.2f%%  (16 sets thrash)\n", plain.Stats().Data().Percent())
	fmt.Printf("  column buffers + victim:    %6.2f%%  (victim absorbs the conflicts)\n", proposed.Stats().Data().Percent())
	fmt.Printf("  conventional 16KB DM 32B:   %6.2f%%  (512 sets: no conflict)\n", conv.Stats().Data().Percent())

	// A custom parallel workload: 4 processors ping-pong a counter.
	res := iram.RunParallel(4, iram.IntegratedVictim, func(p *iram.Proc) {
		const counter = 0x1000
		for i := 0; i < 200; i++ {
			p.Lock(1)
			p.Read(counter)
			p.Compute(3)
			p.Write(counter)
			p.Unlock(1)
		}
		p.Barrier()
	})
	fmt.Printf("\ncustom 4-proc lock ping-pong: %d cycles for %d shared accesses\n",
		res.Cycles, res.Accesses)
}
