package lint

import "go/token"

// The Facts layer: per-function summaries computed bottom-up over the call
// graph's SCC condensation. A Fact is one reason a property holds of a
// function — either a direct construct in its body (Via == nil) or a call
// edge into a function that already has facts (Via != nil). Facts chain:
// following Via pointers from an annotated root reconstructs the full call
// path to the underlying construct, which is what the analyzers print.

// Fact is one piece of evidence attached to a function.
type Fact struct {
	Pos token.Pos // the construct or the call expression
	Msg string    // what the construct is ("time.Now reads the wall clock")
	Via *FuncNode // the callee the fact was inherited through; nil if direct
}

// Facts maps every function to its evidence list, direct facts first (in
// source order), then one inherited fact per implicated call edge.
type Facts struct {
	m map[*FuncNode][]Fact
}

// Holds reports whether the property holds of n.
func (f *Facts) Holds(n *FuncNode) bool { return len(f.m[n]) > 0 }

// ComputeFacts propagates a property bottom-up: a function has facts when
// direct(n) finds constructs in its body, or when a call edge admitted by
// through(n, c) — every edge, when through is nil — reaches a function that
// has facts. Within an SCC the
// members are iterated to a fixed point, so mutual recursion converges.
// The traversal order is deterministic (see Program.SCCs).
func (prog *Program) ComputeFacts(direct func(*FuncNode) []Fact, through func(*FuncNode, Call) bool) *Facts {
	facts := &Facts{m: map[*FuncNode][]Fact{}}
	inherit := func(n *FuncNode) bool {
		changed := false
		for _, c := range n.Calls {
			if c.Callee == nil || !facts.Holds(c.Callee) || through != nil && !through(n, c) {
				continue
			}
			if hasVia(facts.m[n], c.Callee) {
				continue
			}
			facts.m[n] = append(facts.m[n], Fact{
				Pos: c.Pos,
				Msg: "calls " + c.CalleeName(),
				Via: c.Callee,
			})
			changed = true
		}
		return changed
	}
	for _, comp := range prog.SCCs() {
		for _, n := range comp {
			if d := direct(n); len(d) > 0 {
				facts.m[n] = append(facts.m[n], d...)
			}
		}
		// Fixed point within the component (cross-component facts are
		// final already, thanks to bottom-up order).
		for again := true; again; {
			again = false
			for _, n := range comp {
				if inherit(n) {
					again = true
				}
			}
		}
	}
	return facts
}

func hasVia(fs []Fact, callee *FuncNode) bool {
	for _, f := range fs {
		if f.Via == callee {
			return true
		}
	}
	return false
}

// Leaf is one ultimate piece of evidence reachable from a root: the direct
// fact plus the call chain (as hops) that reaches it.
type Leaf struct {
	Fact  Fact
	Chain []ChainHop // root-first: one hop per call edge taken
}

// Leaves resolves a root's facts to their underlying direct constructs,
// following Via chains depth-first in fact order and deduplicating by
// construct position. The chain hops record each call edge taken, so a
// diagnostic can print root → f → g → construct. rootMsg labels the first
// hop (why the root matters to the reporting analyzer).
func (f *Facts) Leaves(root *FuncNode, rootMsg string) []Leaf {
	var out []Leaf
	seenPos := map[token.Pos]bool{}
	onPath := map[*FuncNode]bool{}
	var walk func(n *FuncNode, chain []ChainHop)
	walk = func(n *FuncNode, chain []ChainHop) {
		if onPath[n] {
			return // cycle within an SCC; evidence already collected once
		}
		onPath[n] = true
		defer delete(onPath, n)
		for _, fact := range f.m[n] {
			if fact.Via == nil {
				if !seenPos[fact.Pos] {
					seenPos[fact.Pos] = true
					out = append(out, Leaf{Fact: fact, Chain: append([]ChainHop(nil), chain...)})
				}
				continue
			}
			hop := ChainHop{Pos: fact.Pos, Message: n.Name() + " " + fact.Msg}
			walk(fact.Via, append(chain, hop))
		}
	}
	walk(root, []ChainHop{{Pos: root.Decl.Pos(), Message: rootMsg}})
	return out
}

// reportReached reports every construct the facts hold against a root
// function — once each, however many roots reach it: under the first root
// in node order, with that root's call chain as notes. rootMsg completes
// "<root> ..." in the first note; format receives the fact's message and
// the root's name. It returns the reported positions.
func (p *Pass) reportReached(facts *Facts, isRoot func(*FuncNode) bool, rootMsg, format string) map[token.Pos]bool {
	reported := map[token.Pos]bool{}
	for _, root := range p.Prog.Nodes {
		if !isRoot(root) {
			continue
		}
		for _, leaf := range facts.Leaves(root, root.Name()+rootMsg) {
			if !reported[leaf.Fact.Pos] {
				reported[leaf.Fact.Pos] = true
				p.ReportChain(leaf.Fact.Pos, leaf.Chain, format, leaf.Fact.Msg, root.Name())
			}
		}
	}
	return reported
}
