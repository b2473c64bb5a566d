package algebra

import (
	"fmt"
	"strings"
)

// PhysNode describes one operator of a compiled physical plan: the execution
// strategy the engine chose for a logical plan or conjunctive query. It is a
// pure description tree — operators themselves live in the engine — so that
// explain surfaces (the library facade, the CLI) can render the physical
// shape without importing the executor.
type PhysNode struct {
	// Op is the operator name: IndexScan, ViewScan, MergeJoin, HashJoin,
	// Sort, CrossProduct, Filter, Project, Distinct, Union.
	Op string
	// Detail is operator-specific: the scanned atom and permutation, join
	// columns and residual equalities, a hash join's build side, the sort
	// slot, filter conditions, projected columns.
	Detail string
	// EstRows is the operator's estimated output cardinality (0 if unknown).
	EstRows float64
	// Build is a hash join's chosen build side ("left" or "right"; empty for
	// operators without one). It is rendered between Detail and the batch/row
	// annotations, so explain surfaces show the executor's actual choice.
	Build string
	// Batch is the operator's batch size: the number of rows per column
	// batch, rendered at the dataflow points that fill batches from outside
	// the pipeline (scan leaves decoding them). 0 leaves it unrendered.
	Batch int
	// Children are the input operators, left to right.
	Children []*PhysNode
}

// NewPhysNode builds a node.
func NewPhysNode(op, detail string, estRows float64, children ...*PhysNode) *PhysNode {
	return &PhysNode{Op: op, Detail: detail, EstRows: estRows, Children: children}
}

// String renders the plan as an indented tree, one operator per line:
//
//	Distinct
//	  Project [X1,X3]
//	    MergeJoin [X2]
//	      IndexScan t(X1, #5, X2) perm=pos prefix=1
//	      IndexScan t(X2, #6, X3) perm=pso prefix=1
func (n *PhysNode) String() string {
	var sb strings.Builder
	n.render(&sb, 0)
	return sb.String()
}

func (n *PhysNode) render(sb *strings.Builder, depth int) {
	sb.WriteString(strings.Repeat("  ", depth))
	sb.WriteString(n.Op)
	if n.Detail != "" {
		sb.WriteString(" ")
		sb.WriteString(n.Detail)
	}
	if n.Build != "" {
		sb.WriteString(" build=")
		sb.WriteString(n.Build)
	}
	if n.Batch > 0 {
		fmt.Fprintf(sb, " batch=%d", n.Batch)
	}
	if n.EstRows > 0 {
		fmt.Fprintf(sb, "  (≈%.0f rows)", n.EstRows)
	}
	sb.WriteString("\n")
	for _, c := range n.Children {
		c.render(sb, depth+1)
	}
}

// Operators walks the tree and returns the operator names in pre-order; handy
// for tests asserting the chosen physical shape.
func (n *PhysNode) Operators() []string {
	out := []string{n.Op}
	for _, c := range n.Children {
		out = append(out, c.Operators()...)
	}
	return out
}
