// generated by scanguard-netlist
module fanout (a, y0, y1);
  input a;
  output y0;
  output y1;
  wire a;
  wire n1;
  assign y0 = n1;
  assign y1 = n1;
  INV g0 (.Y(n1), .A(a));
endmodule
