// generated by scanguard-netlist
module dups (a, y, z);
  input a;
  output y;
  output z;
  wire a;
  wire twin;
  wire n2;
  wire n3;
  wire n4;
  wire n5;
  wire \n6 ;
  wire g4;
  wire g7;
  assign y = g7;
  assign z = n3;
  INV twin (.Y(twin), .A(a));
  BUF g1 (.Y(n2), .A(twin));
  INV n5 (.Y(n3), .A(n2));
  AND2 g3 (.Y(n4), .A(n2), .B(n3));
  INV g4 (.Y(n5), .A(n4));
  BUF n6 (.Y(\n6 ), .A(n5));
  INV g6 (.Y(g4), .A(\n6 ));
  BUF \g7  (.Y(g7), .A(g4));
endmodule
