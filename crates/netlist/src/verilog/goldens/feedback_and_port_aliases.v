// generated by scanguard-netlist
module fb (clk, a, q_out, state);
  input clk;
  input a;
  output q_out;
  output state;
  wire a;
  wire loop;
  wire n2;
  wire state;
  assign q_out = state;
  XOR2 g0 (.Y(n2), .A(a), .B(loop));
  DFF state (.Q(state), .D(n2));
  BUF g2 (.Y(loop), .A(state));
endmodule
