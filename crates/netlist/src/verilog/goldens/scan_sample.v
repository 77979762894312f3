// generated by scanguard-netlist
module samp (clk, retain, a, b, si, se, y);
  input clk;
  input retain;
  input a;
  input b;
  input si;
  input se;
  output y;
  wire a;
  wire b;
  wire n2;
  wire si;
  wire se;
  wire r0;
  wire n6;
  assign y = n6;
  XOR2 g0 (.Y(n2), .A(a), .B(b));
  RSDFF r0 (.Q(r0), .D(n2), .SI(si), .SE(se));
  MX2 g2 (.Y(n6), .S(se), .A(r0), .B(n2));
endmodule
