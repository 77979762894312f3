// generated by scanguard-netlist
module tricky (\d[0] , \d[1] , \d[2] , \q[0] , \q[1] , plain);
  input \d[0] ;
  input \d[1] ;
  input \d[2] ;
  output \q[0] ;
  output \q[1] ;
  output plain;
  wire \d[0] ;
  wire \d[1] ;
  wire \d[2] ;
  wire n3;
  wire n5;
  wire n99;
  wire n6;
  assign \q[0]  = n6;
  assign \q[1]  = n3;
  assign plain = n99;
  XOR2 g0 (.Y(n3), .A(\d[0] ), .B(\d[1] ));
  BUF n5 (.Y(n5), .A(n3));
  INV n99 (.Y(n99), .A(n5));
  AND2 g3 (.Y(n6), .A(n99), .B(\d[2] ));
endmodule
