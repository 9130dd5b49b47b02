package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// guestImage is one generated run-kind guest: assembly source, the stdin
// it is served with, and the verdict the taint machine must reach.
type guestImage struct {
	source  string
	stdin   string
	variant string
	verdict string // "detected" or "clean", as the service labels outcomes
}

// imageVariants are the generator's shapes. Every image reads stdin (a
// taint source) into buf, runs a seeded clean loop over a seeded table,
// then uses one tainted stdin word in the variant's way:
//
//	clean: as arithmetic data only, stored through a clean pointer;
//	load:  as a load address (pointer taintedness must alert);
//	store: as a store address (must alert);
//	jump:  as a jump-register target (must alert).
var imageVariants = []struct{ name, use, verdict string }{
	{"clean", "add $t2, $t2, $t8", "clean"},
	{"load", "lw $s0, 0($t8)", "detected"},
	{"store", "sw $t2, 0($t8)", "detected"},
	{"jump", "jr $t8", "detected"},
}

// genImage builds one distinct guest image for variant v from rng.
func genImage(rng *rand.Rand, v int) guestImage {
	iv := imageVariants[v]
	words := 16 << rng.Intn(3) // a power of two, indexed by masking
	iters := 40 + rng.Intn(120)
	off := 4 * rng.Intn(4)
	ops := []string{"add", "xor", "sub", "or"}
	var b strings.Builder
	b.WriteString("\t.data\nbuf:\t.space 32\ntbl:\t.word ")
	for i := 0; i < words; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", rng.Intn(1<<16))
	}
	fmt.Fprintf(&b, "\nacc:\t.word 0\n\t.text\nmain:\n")
	b.WriteString("\tli $v0, 3\n\tli $a0, 0\n\tla $a1, buf\n\tli $a2, 32\n\tsyscall\n")
	fmt.Fprintf(&b, "\tla $t0, tbl\n\tli $t1, 0\n\tli $t2, %d\n\tli $t3, %d\n", rng.Intn(1000), iters)
	fmt.Fprintf(&b, "loop:\n\tandi $t4, $t1, %d\n\tsll $t4, $t4, 2\n\tadd $t5, $t0, $t4\n\tlw $t6, 0($t5)\n", words-1)
	fmt.Fprintf(&b, "\t%s $t2, $t2, $t6\n\taddi $t1, $t1, 1\n\tblt $t1, $t3, loop\n", ops[rng.Intn(len(ops))])
	fmt.Fprintf(&b, "\tla $t7, buf\n\tlw $t8, %d($t7)\n\t%s\n", off, iv.use)
	b.WriteString("\tla $t9, acc\n\tsw $t2, 0($t9)\n\tli $v0, 1\n\tli $a0, 0\n\tsyscall\n")
	stdin := make([]byte, 16+rng.Intn(16))
	for i := range stdin {
		stdin[i] = byte('A' + rng.Intn(26))
	}
	return guestImage{source: b.String(), stdin: string(stdin), variant: iv.name, verdict: iv.verdict}
}
