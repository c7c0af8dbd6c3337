// Package tracezero is a lint fixture: allocating arguments to methods
// on possibly-nil spans.
package tracezero

import (
	"fmt"

	"fixture/internal/trace"
)

type ctx struct {
	span *trace.Span
}

// Unguarded formats an argument for a possibly-nil span.
func Unguarded(c *ctx, i int) {
	c.span.SetStr("arm", fmt.Sprintf("arm[%d]", i))
}

// Guarded proves the receiver non-nil first.
func Guarded(c *ctx, i int) {
	if c.span != nil {
		c.span.SetStr("arm", fmt.Sprintf("arm[%d]", i))
	}
}

// EarlyReturn uses the guard-and-return idiom.
func EarlyReturn(c *ctx, i int) *trace.Span {
	if c.span == nil {
		return nil
	}
	return c.span.Child(fmt.Sprintf("arm[%d]", i))
}

// Constant arguments never allocate, guarded or not.
func Constant(c *ctx) {
	c.span.SetStr("phase", "optimize")
	c.span.SetStr("k", "a"+"b") // constant-folded concat is free
}

// Concat is flagged for non-constant string concatenation too.
func Concat(c *ctx, name string) {
	c.span.SetStr("name", "arm:"+name)
}

// Reassigned loses the proof when the receiver path changes.
func Reassigned(c *ctx, other *trace.Span, i int) {
	if c.span != nil {
		c.span = other
		c.span.SetStr("arm", fmt.Sprintf("arm[%d]", i))
	}
}

// CompoundCond folds the nil check into an && on the branch it guards.
func CompoundCond(c *ctx, on bool, i int) {
	if c.span != nil && on {
		c.span.SetStr("arm", fmt.Sprintf("arm[%d]", i))
	}
}

// CompoundReturn folds the nil check into an || guarding a return.
func CompoundReturn(c *ctx, on bool, i int) {
	if c.span == nil || !on {
		return
	}
	c.span.SetStr("arm", fmt.Sprintf("arm[%d]", i))
}

// CompoundWrongEdge returns on a condition whose false edge proves
// nothing: past `c.span == nil && on`, the span is nil whenever on is
// false, so the call is still flagged.
func CompoundWrongEdge(c *ctx, on bool, i int) {
	if c.span == nil && on {
		return
	}
	c.span.SetStr("arm", fmt.Sprintf("arm[%d]", i))
}

// FormattedLocal formats into a local that only a possibly-nil span's
// method uses: the allocation happens whether or not tracing is on.
func FormattedLocal(c *ctx, i int) *trace.Span {
	name := fmt.Sprintf("arm[%d]", i)
	return c.span.Child(name)
}

// FormattedLocalAboveGuard formats before the guard that protects the
// call: the call is proven, the formatting is not.
func FormattedLocalAboveGuard(c *ctx, i int) {
	name := "arm:" + fmt.Sprint(i)
	if c.span != nil {
		c.span.SetStr("arm", name)
	}
}

// FormattedLocalGuarded formats inside the guard.
func FormattedLocalGuarded(c *ctx, i int) *trace.Span {
	if c.span == nil {
		return nil
	}
	name := fmt.Sprintf("arm[%d]", i)
	return c.span.Child(name)
}

// FormattedLocalUsedElsewhere needs the string whether or not tracing is
// on.
func FormattedLocalUsedElsewhere(c *ctx, i int) string {
	name := fmt.Sprintf("arm[%d]", i)
	c.span.SetStr("arm", name)
	return name
}
