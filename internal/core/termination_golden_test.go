package core

import "strings"

// terminationGolden is terminationCorpus's output at the last commit whose
// checkTermination sorted every matched output pair: one line per pattern,
// one batches/early/matches entry per (k, options) run.
var terminationGolden = strings.Fields(`
1/true/1 1/true/1 1/true/1 1/true/1 5/false/1 5/false/1 5/false/1 5/false/1 5/false/1 5/false/1 5/false/1 5/false/1 5/false/1 5/false/1 5/false/1 5/false/1
14/true/51 14/true/51 38/true/51 15/true/51 14/true/51 14/true/51 38/true/51 15/true/51 14/true/51 14/true/51 38/true/51 15/true/51 14/true/51 14/true/51 38/true/51 15/true/51
15/true/42 15/true/42 39/false/42 15/true/42 15/true/42 15/true/42 39/false/42 15/true/42 15/true/42 15/true/42 39/false/42 15/true/42 15/true/42 15/true/42 39/false/42 15/true/42
14/true/112 14/true/112 38/true/112 15/false/112 14/true/112 14/true/112 38/true/112 15/false/112 14/true/112 14/true/112 38/true/112 15/false/112 14/true/112 14/true/112 38/true/112 15/false/112
15/false/35 15/false/35 39/false/35 15/false/35 15/false/35 15/false/35 39/false/35 15/false/35 15/false/35 15/false/35 39/false/35 15/false/35 15/false/35 15/false/35 39/false/35 15/false/35
14/true/6 14/true/6 38/true/6 15/false/6 14/true/6 14/true/6 38/true/6 15/false/6 15/false/6 15/false/6 39/false/6 15/false/6 15/false/6 15/false/6 39/false/6 15/false/6
12/true/3 14/true/4 38/true/4 14/true/2 12/true/3 14/true/4 38/true/4 15/true/4 16/false/4 16/false/4 39/false/4 16/false/4 16/false/4 16/false/4 39/false/4 16/false/4
15/false/40 15/false/40 39/false/40 15/false/40 15/false/40 15/false/40 39/false/40 15/false/40 15/false/40 15/false/40 39/false/40 15/false/40 15/false/40 15/false/40 39/false/40 15/false/40
14/true/60 15/false/78 39/false/78 15/false/78 14/true/60 15/false/78 39/false/78 15/false/78 15/false/78 15/false/78 39/false/78 15/false/78 15/false/78 15/false/78 39/false/78 15/false/78
14/true/42 14/true/42 38/true/42 15/true/42 14/true/42 14/true/42 38/true/42 15/true/42 14/true/42 14/true/42 38/true/42 15/true/42 14/true/42 14/true/42 38/true/42 15/true/42
15/false/108 15/false/108 39/false/108 15/false/108 15/false/108 15/false/108 39/false/108 15/false/108 15/false/108 15/false/108 39/false/108 15/false/108 15/false/108 15/false/108 39/false/108 15/false/108
14/true/6 14/true/6 38/true/6 16/false/6 14/true/6 14/true/6 38/true/6 16/false/6 16/false/6 16/false/6 39/false/6 16/false/6 16/false/6 16/false/6 39/false/6 16/false/6
14/true/67 14/true/67 38/true/67 15/true/67 14/true/67 14/true/67 38/true/67 15/true/67 14/true/67 14/true/67 38/true/67 15/true/67 14/true/67 14/true/67 38/true/67 15/true/67
14/true/8 14/true/8 38/true/8 15/false/8 14/true/8 14/true/8 38/true/8 15/false/8 15/false/8 15/false/8 39/false/8 15/false/8 15/false/8 15/false/8 39/false/8 15/false/8
15/true/26 15/true/26 39/false/26 15/true/26 15/true/26 15/true/26 39/false/26 15/true/26 15/true/26 15/true/26 39/false/26 15/true/26 16/false/26 16/false/26 39/false/26 16/false/26
14/true/7 14/true/7 37/true/7 15/true/7 14/true/7 14/true/7 37/true/7 15/true/7 16/false/7 16/false/7 39/false/7 16/false/7 16/false/7 16/false/7 39/false/7 16/false/7
14/true/52 14/true/52 38/true/52 15/false/52 14/true/52 14/true/52 38/true/52 15/false/52 14/true/52 14/true/52 38/true/52 15/false/52 14/true/52 14/true/52 38/true/52 15/false/52
15/true/13 15/true/13 39/false/13 16/false/13 15/true/13 15/true/13 39/false/13 16/false/13 15/true/13 15/true/13 39/false/13 16/false/13 16/false/13 16/false/13 39/false/13 16/false/13
14/true/136 15/false/190 39/false/190 15/false/190 14/true/136 15/false/190 39/false/190 15/false/190 15/false/190 15/false/190 39/false/190 15/false/190 15/false/190 15/false/190 39/false/190 15/false/190
15/false/35 15/false/35 39/false/35 15/false/35 15/false/35 15/false/35 39/false/35 15/false/35 15/false/35 15/false/35 39/false/35 15/false/35 15/false/35 15/false/35 39/false/35 15/false/35
12/true/20 14/true/44 38/true/44 15/false/44 14/true/44 14/true/44 38/true/44 15/false/44 14/true/44 14/true/44 38/true/44 15/false/44 14/true/44 14/true/44 38/true/44 15/false/44
14/true/10 14/true/10 38/true/10 15/false/10 14/true/10 14/true/10 38/true/10 15/false/10 13/true/10 13/true/10 37/true/10 15/false/10 15/false/10 15/false/10 39/false/10 15/false/10
14/true/79 14/true/79 38/true/79 15/true/79 14/true/79 14/true/79 38/true/79 15/true/79 14/true/79 14/true/79 38/true/79 15/true/79 14/true/79 14/true/79 38/true/79 15/true/79
15/true/19 15/true/19 39/false/19 16/false/19 15/true/19 15/true/19 39/false/19 16/false/19 15/true/19 15/true/19 39/false/19 16/false/19 16/false/19 16/false/19 39/false/19 16/false/19
`)
