package main

import (
	"time"
)

// Host-drift reference loops: a fixed ALU loop and a fixed memory-bound
// loop, timed before and after every run. They are never used to normalise
// a metric; they let a reader tell host drift from a regression.

type hostRef struct {
	ALUms float64 `json:"ref_alu_ms"`
	Memms float64 `json:"ref_mem_ms"`
}

var sink uint64

func aluLoop() {
	x := uint64(88172645463325252)
	for i := 0; i < 30_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	sink += x
}

// memLoop streams a 32 MiB buffer (larger than the last-level caches of
// common hosts) with a cache-line stride, so its time follows memory
// bandwidth rather than the ALU.
func memLoop(buf []uint64) {
	var s uint64
	for pass := 0; pass < 8; pass++ {
		for i := pass; i < len(buf); i += 8 {
			s += buf[i]
			buf[i] = s
		}
	}
	sink += s
}

func probeHost() hostRef {
	buf := make([]uint64, 32<<20/8)
	var alu, mem []float64
	for k := 0; k < 3; k++ {
		t0 := time.Now()
		aluLoop()
		alu = append(alu, ms(time.Since(t0)))
		t0 = time.Now()
		memLoop(buf)
		mem = append(mem, ms(time.Since(t0)))
	}
	return hostRef{ALUms: median(alu), Memms: median(mem)}
}
