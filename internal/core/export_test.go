package core

// SharedPaperEngine lets the examples, which live in package core_test,
// reuse the frontier index the package's tests build (see paperEngine).
var SharedPaperEngine = paperEngine
