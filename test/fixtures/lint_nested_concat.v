// Error-severity lint finding through a nested concatenation lvalue: [a]
// is driven both by the two-deep concatenation and by its own continuous
// assignment. The lint subcommand must see through the nesting and exit
// non-zero (the exit-code contract the dune rule pins).
module lint_nested_concat(x, a, b, c);
  input [3:0] x;
  output [1:0] a;
  output b, c;
  wire [1:0] a;
  wire b, c;
  assign {{a, b}, c} = x;
  assign a = 2'b00;
endmodule
