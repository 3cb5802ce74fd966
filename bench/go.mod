module distcfd/bench

go 1.24

require distcfd v0.0.0

replace distcfd => ../
