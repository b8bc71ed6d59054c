package rerank

// Test hooks for the external rerank_test package, whose property
// tests build pools through core and so cannot live in this package.
var (
	ReferenceFeatures = referenceFeatures
	RecordFeatures    = recordFeatures
	FirstBitDiff      = firstBitDiff
)
