// Package fixture exercises the spanpair check against the real
// telemetry Span type.
package fixture

import (
	"context"

	"fillvoid/internal/telemetry"
)

// Registry.Start returns (ctx, span): the span element of the tuple
// must be ended even though the call's direct result is not a span.
func leaked(ctx context.Context, reg *telemetry.Registry) string {
	_, sp := reg.Start(ctx, "stage") // want "never ended"
	return sp.Path()
}

func discarded(ctx context.Context, reg *telemetry.Registry) {
	reg.Start(ctx, "stage") // want "span result discarded"
}

func blank(ctx context.Context, reg *telemetry.Registry) {
	_, _ = reg.Start(ctx, "stage") // want "span assigned to _"
}

// Ended spans are fine, deferred or direct.
func ended(ctx context.Context, reg *telemetry.Registry) context.Context {
	ctx, sp := reg.Start(ctx, "stage")
	defer sp.End()
	return ctx
}

// A span that escapes is the receiver's responsibility.
func escapes(ctx context.Context, reg *telemetry.Registry) *telemetry.Span {
	_, sp := reg.Start(ctx, "stage")
	return sp
}

func childDiscarded(sp *telemetry.Span) {
	sp.Child("stage") // want "span result discarded"
}

func childLeaked(sp *telemetry.Span) {
	child := sp.Child("stage") // want "never ended"
	child.SetError("boom")
}

func childEnded(sp *telemetry.Span) {
	child := sp.Child("stage")
	child.SetAttr("k", "v")
	child.End()
}

// Trace roots: Registry.StartTrace returns (ctx, span) too.
func rootLeaked(ctx context.Context, reg *telemetry.Registry) {
	_, sp := reg.StartTrace(ctx, "root", "") // want "never ended"
	sp.SetAttr("k", "v")
}

func rootBlank(ctx context.Context, reg *telemetry.Registry, traceparent string) {
	_, _ = reg.StartTrace(ctx, "root", traceparent) // want "span assigned to _"
}

func rootEnded(ctx context.Context, reg *telemetry.Registry) context.Context {
	ctx, sp := reg.StartTrace(ctx, "root", "")
	defer sp.End()
	return ctx
}

// FromContext borrows a span someone else owns; no End required.
func borrowed(ctx context.Context) string {
	sp := telemetry.FromContext(ctx)
	return sp.Traceparent()
}
