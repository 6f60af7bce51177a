module divtopk/benchmark

go 1.24

require divtopk v0.0.0

replace divtopk => ../
