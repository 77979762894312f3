// generated by scanguard-netlist
module chain4 (clk, d0, d1, d2, d3, \si[0] , se, q3, \so[0] );
  input clk;
  input d0;
  input d1;
  input d2;
  input d3;
  input \si[0] ;
  input se;
  output q3;
  output \so[0] ;
  wire q0;
  wire q1;
  wire q2;
  wire q3;
  wire d0;
  wire d1;
  wire d2;
  wire d3;
  wire \si[0] ;
  wire se;
  assign \so[0]  = q3;
  SDFF r0 (.Q(q0), .D(d0), .SI(\si[0] ), .SE(se));
  SDFF r1 (.Q(q1), .D(d1), .SI(q0), .SE(se));
  SDFF r2 (.Q(q2), .D(d2), .SI(q1), .SE(se));
  SDFF r3 (.Q(q3), .D(d3), .SI(q2), .SE(se));
endmodule
