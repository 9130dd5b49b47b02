package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// This file holds the spec-tainted inputs and the output oracles: a Go
// model of each SPEC analogue (internal/progs/spec.go) that computes the
// summary line the guest must print, independently of the compiler, the
// runtime library and the machine. Each model follows the C source's
// control flow, including its read granularity (4096-byte read chunks
// for bzip2s and parsers, byte-wise readline for the line readers) and
// 32-bit wrap-around.

// specSize is one program's input size per session, chosen so that each
// program retires roughly the same guest instructions (see README.md).
var specSize = map[string]int{
	"bzip2s":  750,  // bytes of MTF/RLE fodder
	"gccs":    200,  // expression lines
	"gzips":   8192, // bytes; the program reads at most 8192
	"mcfs":    480,  // arcs over 96 nodes
	"parsers": 5000, // bytes of prose
	"vprs":    5,    // nets over 24 cells; 1200 annealing moves each
}

// specInput generates one seeded input for a program, in the shape of
// the corpus's fixed Table 3 inputs (progs.SpecInput).
func specInput(name string, rng *rand.Rand) []byte {
	n := specSize[name]
	switch name {
	case "bzip2s":
		out := make([]byte, 0, n)
		for len(out) < n {
			sym := byte(rng.Intn(64))
			if rng.Intn(4) == 0 {
				sym = byte(rng.Intn(256))
			}
			run := 1 + rng.Intn(6)
			for i := 0; i < run && len(out) < n; i++ {
				out = append(out, sym)
			}
		}
		return out
	case "gccs":
		var b strings.Builder
		var gen func(depth int)
		gen = func(depth int) {
			if depth == 0 || rng.Intn(3) == 0 {
				fmt.Fprintf(&b, "%d", rng.Intn(500))
				return
			}
			b.WriteByte('(')
			gen(depth - 1)
			b.WriteByte(" +-*/"[1+rng.Intn(4)])
			gen(depth - 1)
			b.WriteByte(')')
		}
		for i := 0; i < n; i++ {
			gen(3)
			b.WriteByte('\n')
		}
		return []byte(b.String())
	case "gzips":
		phrases := []string{
			"the quick brown fox ", "pointer taintedness ", "memory corruption ",
			"security exception ", "buffer overflow ", "format string ",
		}
		var b strings.Builder
		for b.Len() < n {
			b.WriteString(phrases[rng.Intn(len(phrases))])
			if rng.Intn(5) == 0 {
				fmt.Fprintf(&b, "%d ", rng.Intn(10000))
			}
		}
		return []byte(b.String()[:n])
	case "mcfs":
		const nodes = 96
		var b strings.Builder
		for v := 1; v < nodes; v++ {
			fmt.Fprintf(&b, "%d %d %d\n", rng.Intn(v), v, 1+rng.Intn(50))
		}
		for i := nodes - 1; i < n; i++ {
			fmt.Fprintf(&b, "%d %d %d\n", rng.Intn(nodes), rng.Intn(nodes), 1+rng.Intn(100))
		}
		return []byte(b.String())
	case "parsers":
		words := []string{
			"tainted", "pointer", "alert", "memory", "register", "stack",
			"heap", "format", "buffer", "attack", "daemon", "packet",
			"system", "value", "address", "input",
		}
		var b strings.Builder
		for b.Len() < n {
			k := 4 + rng.Intn(9)
			for i := 0; i < k; i++ {
				b.WriteString(words[rng.Intn(len(words))])
				if i < k-1 {
					b.WriteByte(' ')
				}
			}
			b.WriteString(". ")
		}
		return []byte(b.String()[:n])
	case "vprs":
		const cells = 24
		var b strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "%d %d\n", rng.Intn(cells), rng.Intn(cells))
		}
		return []byte(b.String())
	}
	panic("specInput: unknown program " + name)
}

// specModel returns the exact stdout the SPEC analogue must print for in.
func specModel(name string, in []byte) string {
	switch name {
	case "bzip2s":
		return modelBzip2(in)
	case "gccs":
		return modelGCC(in)
	case "gzips":
		return modelGzip(in)
	case "mcfs":
		return modelMCF(in)
	case "parsers":
		return modelParser(in)
	case "vprs":
		return modelVPR(in)
	}
	panic("specModel: unknown program " + name)
}

// chunks splits in the way read(fd, buf, size) returns it.
func chunks(in []byte, size int) [][]byte {
	var out [][]byte
	for off := 0; off < len(in); off += size {
		out = append(out, in[off:min(off+size, len(in))])
	}
	return out
}

// readLines splits in the way the runtime's readline(fd, buf, max) does:
// lines end at '\n', '\r' is dropped, a line is cut at max-1 bytes (the
// rest becomes the next line), and EOF before any byte ends the loop.
func readLines(in []byte, max int) []string {
	var out []string
	i := 0
	for i < len(in) {
		var b []byte
		for len(b) < max-1 && i < len(in) {
			c := in[i]
			i++
			if c == '\n' {
				break
			}
			if c == '\r' {
				continue
			}
			b = append(b, c)
		}
		out = append(out, string(b))
	}
	return out
}

// atoi mirrors the runtime library's atoi: skip blanks and tabs, an
// optional '-', then decimal digits with 32-bit wrap-around.
func atoi(s string) int32 {
	i := 0
	for i < len(s) && (s[i] == ' ' || s[i] == '\t') {
		i++
	}
	neg := false
	if i < len(s) && s[i] == '-' {
		neg = true
		i++
	}
	var v int32
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		v = v*10 + int32(s[i]-'0')
		i++
	}
	if neg {
		return -v
	}
	return v
}

// skipField advances past a field and the blanks after it, as the mcfs
// and vprs parsers do with their "while (*p && *p != ' ') p++" loops.
func skipField(s string, i int, blanks bool) int {
	for i < len(s) && s[i] != ' ' {
		i++
	}
	if blanks {
		for i < len(s) && s[i] == ' ' {
			i++
		}
	}
	return i
}

func modelBzip2(in []byte) string {
	var mtf [256]byte
	for i := range mtf {
		mtf[i] = byte(i)
	}
	var hist [256]int
	total, outbytes := 0, 0
	for _, ch := range chunks(in, 4096) {
		n := len(ch)
		buf := make([]byte, n)
		for i, c := range ch {
			j := 0
			for mtf[j] != c {
				j++
			}
			buf[i] = byte(j)
			for ; j > 0; j-- {
				mtf[j] = mtf[j-1]
			}
			mtf[0] = c
			hist[c]++
		}
		for i := 0; i < n; {
			run := 1
			for i+run < n && buf[i+run] == buf[i] && run < 255 {
				run++
			}
			if run > 3 {
				outbytes += 3
			} else {
				outbytes += run
			}
			i += run
		}
		total += n
	}
	used := 0
	for _, h := range hist {
		if h != 0 {
			used++
		}
	}
	return fmt.Sprintf("bzip2s: in=%d out=%d symbols=%d\n", total, outbytes, used)
}

// gccVM is the gccs recursive-descent compiler and stack VM.
type gccVM struct {
	src  string
	pos  int
	code []int32
}

func (g *gccVM) peek() byte {
	if g.pos < len(g.src) {
		return g.src[g.pos]
	}
	return 0
}

func (g *gccVM) skip() {
	for g.peek() == ' ' {
		g.pos++
	}
}

func (g *gccVM) factor() {
	g.skip()
	if g.peek() == '(' {
		g.pos++
		g.expr()
		if g.peek() == ')' {
			g.pos++
		}
		return
	}
	var v int32
	for c := g.peek(); c >= '0' && c <= '9'; c = g.peek() {
		v = v*10 + int32(c-'0')
		g.pos++
	}
	g.code = append(g.code, 1, v)
}

func (g *gccVM) term() {
	g.factor()
	for {
		g.skip()
		switch g.peek() {
		case '*':
			g.pos++
			g.factor()
			g.code = append(g.code, 3, 0)
		case '/':
			g.pos++
			g.factor()
			g.code = append(g.code, 4, 0)
		default:
			return
		}
	}
}

func (g *gccVM) expr() {
	g.term()
	for {
		g.skip()
		switch g.peek() {
		case '+':
			g.pos++
			g.term()
			g.code = append(g.code, 5, 0)
		case '-':
			g.pos++
			g.term()
			g.code = append(g.code, 6, 0)
		default:
			return
		}
	}
}

func (g *gccVM) run() int32 {
	var st []int32
	for pc := 0; pc < len(g.code); pc += 2 {
		switch op := g.code[pc]; op {
		case 1:
			st = append(st, g.code[pc+1])
		case 3, 4, 5, 6:
			a, b := st[len(st)-2], st[len(st)-1]
			st = st[:len(st)-1]
			switch op {
			case 3:
				a *= b
			case 4:
				// The guest skips a division by zero; the machine's DIV
				// gives INT_MIN / -1 == INT_MIN, as Go does.
				if b != 0 {
					a /= b
				}
			case 5:
				a += b
			case 6:
				a -= b
			}
			st[len(st)-1] = a
		}
	}
	if len(st) > 0 {
		return st[len(st)-1]
	}
	return 0
}

func modelGCC(in []byte) string {
	var sum int32
	lines, ops := 0, 0
	for _, l := range readLines(in, 512) {
		if l == "" {
			continue
		}
		g := &gccVM{src: l}
		g.expr()
		sum += g.run()
		ops += len(g.code) / 2
		lines++
	}
	return fmt.Sprintf("gccs: lines=%d ops=%d sum=%d\n", lines, ops, sum)
}

func modelGzip(in []byte) string {
	win := in
	if len(win) > 8192 {
		win = win[:8192]
	}
	n := len(win)
	var head [1024]int
	for i := range head {
		head[i] = -1
	}
	pos, literals, matches, outbits := 0, 0, 0, 0
	for pos < n-2 {
		h := (int(win[pos])*33 + int(win[pos+1])) & 1023
		cand := head[h]
		head[h] = pos
		l := 0
		if cand >= 0 && cand < pos {
			for l < 255 && pos+l < n && win[cand+l] == win[pos+l] {
				l++
			}
		}
		if l >= 3 {
			matches++
			outbits += 24
			pos += l
		} else {
			literals++
			outbits += 9
			pos++
		}
	}
	for ; pos < n; pos++ {
		literals++
		outbits += 9
	}
	return fmt.Sprintf("gzips: in=%d lit=%d match=%d outbits=%d\n", n, literals, matches, outbits)
}

func modelMCF(in []byte) string {
	var from, to, cost []int32
	nnodes := int32(0)
	for _, l := range readLines(in, 128) {
		if len(from) >= 2048 {
			break
		}
		p := 0
		u := atoi(l[p:])
		p = skipField(l, p, true)
		v := atoi(l[p:])
		p = skipField(l, p, true)
		c := atoi(l[p:])
		if u < 0 || u > 255 || v < 0 || v > 255 {
			continue
		}
		from, to, cost = append(from, u), append(to, v), append(cost, c)
		if u >= nnodes {
			nnodes = u + 1
		}
		if v >= nnodes {
			nnodes = v + 1
		}
	}
	var dist [256]int32
	for i := int32(1); i < nnodes; i++ {
		dist[i] = 1000000
	}
	relaxed, rounds := true, int32(0)
	for relaxed && rounds < nnodes {
		relaxed = false
		for a := range from {
			if nd := dist[from[a]] + cost[a]; nd < dist[to[a]] {
				dist[to[a]] = nd
				relaxed = true
			}
		}
		rounds++
	}
	var total int32
	reach := 0
	for i := int32(0); i < nnodes; i++ {
		if dist[i] < 1000000 {
			total += dist[i]
			reach++
		}
	}
	return fmt.Sprintf("mcfs: arcs=%d nodes=%d rounds=%d reach=%d cost=%d\n",
		len(from), nnodes, rounds, reach, total)
}

func modelParser(in []byte) string {
	type word struct {
		text  string
		count int
	}
	var words []word
	buckets := make(map[int][]int) // hash -> word indices, newest first
	lookup := func(t string) int {
		h := 0
		for i := 0; i < len(t); i++ {
			h = (h*31 + int(t[i])) & 255
		}
		for _, w := range buckets[h] {
			if words[w].text == t {
				return w
			}
		}
		if len(words) >= 1024 {
			return -1
		}
		words = append(words, word{text: t})
		buckets[h] = append([]int{len(words) - 1}, buckets[h]...)
		return len(words) - 1
	}
	ntok, sentences := 0, 0
	flush := func(tok []byte) {
		if w := lookup(string(tok)); w != -1 {
			words[w].count++
		}
		ntok++
	}
	for _, ch := range chunks(in, 4096) {
		var tok []byte
		for _, c := range ch {
			alpha := (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
			if alpha && len(tok) < 63 {
				tok = append(tok, c)
				continue
			}
			if len(tok) > 0 {
				flush(tok)
				tok = tok[:0]
			}
			if c == '.' {
				sentences++
			}
		}
		if len(tok) > 0 {
			flush(tok)
		}
	}
	maxc := 0
	for _, w := range words {
		maxc = max(maxc, w.count)
	}
	return fmt.Sprintf("parsers: tokens=%d distinct=%d sentences=%d maxfreq=%d\n",
		ntok, len(words), sentences, maxc)
}

func modelVPR(in []byte) string {
	var neta, netb []int32
	ncells := int32(0)
	seed := uint32(12345)
	for _, l := range readLines(in, 128) {
		if len(neta) >= 512 {
			break
		}
		a := atoi(l)
		b := atoi(l[skipField(l, 0, false):])
		if a < 0 || a > 255 || b < 0 || b > 255 {
			continue
		}
		neta, netb = append(neta, a), append(netb, b)
		if a >= ncells {
			ncells = a + 1
		}
		if b >= ncells {
			ncells = b + 1
		}
		seed += uint32(a*7 + b)
	}
	lcg := func() uint32 {
		seed = seed*1103515245 + 12345
		return (seed / 65536) % 32768
	}
	var x, y [256]int32
	for i := int32(0); i < ncells; i++ {
		x[i] = int32(lcg() % 64)
		y[i] = int32(lcg() % 64)
	}
	abs := func(v int32) int32 {
		if v < 0 {
			return -v
		}
		return v
	}
	wirelen := func() int32 {
		var t int32
		for i := range neta {
			t += abs(x[neta[i]]-x[netb[i]]) + abs(y[neta[i]]-y[netb[i]])
		}
		return t
	}
	cur := wirelen()
	initial, accepted := cur, 0
	for iter := int32(0); iter < 1200; iter++ {
		c := int32(lcg() % uint32(ncells))
		ox, oy := x[c], y[c]
		x[c] = int32(lcg() % 64)
		y[c] = int32(lcg() % 64)
		next := wirelen()
		if next <= cur+(1200-iter)/100 {
			cur = next
			accepted++
		} else {
			x[c], y[c] = ox, oy
		}
	}
	return fmt.Sprintf("vprs: cells=%d nets=%d initial=%d final=%d accepted=%d\n",
		ncells, len(neta), initial, cur, accepted)
}
