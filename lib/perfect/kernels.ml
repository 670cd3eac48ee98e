type kernel = {
  name : string;
  description : string;
  source : string;
  doall_loops : string list;
  serial_loops : string list;
}

let all =
  [
    {
      name = "vector-add";
      description = "elementwise c = a + b";
      source = "for i = 1 to 1000 do\n  c[i] = a[i] + b[i]\nend\n";
      doall_loops = [ "i" ];
      serial_loops = [];
    };
    {
      name = "saxpy";
      description = "y = y + 2x; the in-place update is loop-independent";
      source = "for i = 1 to 1000 do\n  y[i] = y[i] + 2 * x[i]\nend\n";
      doall_loops = [ "i" ];
      serial_loops = [];
    };
    {
      name = "prefix-sum";
      description = "first-order recurrence";
      source = "for i = 2 to 1000 do\n  s[i] = s[i - 1] + a[i]\nend\n";
      doall_loops = [];
      serial_loops = [ "i" ];
    };
    {
      name = "matmul";
      description = "dense matrix multiply; only the reduction loop is serial";
      source =
        "for i = 1 to 64 do\n\
        \  for j = 1 to 64 do\n\
        \    for k = 1 to 64 do\n\
        \      cc[i][j] = cc[i][j] + aa[i][k] * bb[k][j]\n\
        \    end\n\
        \  end\n\
         end\n";
      doall_loops = [ "i"; "j" ];
      serial_loops = [ "k" ];
    };
    {
      name = "jacobi-1d";
      description = "out-of-place three-point stencil";
      source = "for i = 2 to 999 do\n  fresh[i] = old[i - 1] + old[i + 1]\nend\n";
      doall_loops = [ "i" ];
      serial_loops = [];
    };
    {
      name = "gauss-seidel-1d";
      description = "in-place three-point stencil: carried both ways";
      source = "for i = 2 to 999 do\n  g[i] = g[i - 1] + g[i + 1]\nend\n";
      doall_loops = [];
      serial_loops = [ "i" ];
    };
    {
      name = "transpose";
      description = "out-of-place matrix transpose";
      source =
        "for i = 1 to 100 do\n\
        \  for j = 1 to 100 do\n\
        \    tb[i][j] = ta[j][i]\n\
        \  end\n\
         end\n";
      doall_loops = [ "i"; "j" ];
      serial_loops = [];
    };
    {
      name = "red-black";
      description = "update the even points from the odd ones";
      source =
        "for i = 1 to 499 do\n  rb[2 * i] = rb[2 * i - 1] + rb[2 * i + 1]\nend\n";
      doall_loops = [ "i" ];
      serial_loops = [];
    };
    {
      name = "forward-substitution";
      description = "triangular solve; both loops carry dependences";
      source =
        "for i = 2 to 100 do\n\
        \  for j = 1 to i - 1 do\n\
        \    x[i] = x[i] - ll[i][j] * x[j]\n\
        \  end\n\
         end\n";
      doall_loops = [];
      serial_loops = [ "i"; "j" ];
    };
    {
      name = "wavefront";
      description = "2-d recurrence on both neighbors";
      source =
        "for i = 1 to 100 do\n\
        \  for j = 1 to 100 do\n\
        \    wf[i][j] = wf[i - 1][j] + wf[i][j - 1]\n\
        \  end\n\
         end\n";
      doall_loops = [];
      serial_loops = [ "i"; "j" ];
    };
    {
      name = "strided-copy";
      description = "even cells from odd cells: parity proves independence";
      source = "for i = 1 to 500 do\n  b2[2 * i] = b2[2 * i + 1] + 1\nend\n";
      doall_loops = [ "i" ];
      serial_loops = [];
    };
    {
      name = "reversal";
      description = "first half from second half: ranges do not meet";
      source = "for i = 1 to 50 do\n  rv[i] = rv[101 - i]\nend\n";
      doall_loops = [ "i" ];
      serial_loops = [];
    };
    {
      name = "nonlinear";
      description = "a quadratic subscript defeats analysis: conservative";
      source = "for i = 1 to 30 do\n  h[i * i] = h[i] + 1\nend\n";
      doall_loops = [];
      serial_loops = [ "i" ];
    };
    {
      name = "convolution";
      description = "FIR filter: taps reduce serially, outputs in parallel";
      source =
        "for i = 1 to 100 do\n\
        \  for k = 0 to 4 do\n\
        \    outc[i] = outc[i] + sig[i + k] * coef[k]\n\
        \  end\n\
         end\n";
      doall_loops = [ "i" ];
      serial_loops = [ "k" ];
    };
    {
      name = "periodic-halves";
      description = "first half updated from second half";
      source = "for i = 1 to 50 do\n  pb[i] = pb[i + 50] + 1\nend\n";
      doall_loops = [ "i" ];
      serial_loops = [];
    };
    {
      name = "stride-3";
      description = "multiples of three from residue-2 cells: gcd-independent";
      source = "for i = 1 to 100 do\n  g3[3 * i] = g3[3 * i - 1] + 1\nend\n";
      doall_loops = [ "i" ];
      serial_loops = [];
    };
    {
      name = "symbolic-scale";
      description = "in-place scaling under an unknown bound";
      source = "read(n)\nfor i = 1 to n do\n  sv[i] = sv[i] * 2\nend\n";
      doall_loops = [ "i" ];
      serial_loops = [];
    };
    {
      name = "halving-gather";
      description = "x[i] from x[2i]: reads race ahead of writes";
      source = "for i = 1 to 50 do\n  sh[i] = sh[2 * i]\nend\n";
      doall_loops = [];
      serial_loops = [ "i" ];
    };
    {
      name = "banded-smoother";
      description = "anti-diagonal accesses inside a band (loop-residue country)";
      source =
        "read(n)\n\
         for i = 1 to n do\n\
        \  for j = i - 2 to i + 2 do\n\
        \    bs[i - j] = bs[i - j + 1] + 1\n\
        \  end\n\
         end\n";
      doall_loops = [];
      serial_loops = [ "i"; "j" ];
    };
  ]

let find name = List.find_opt (fun k -> String.equal k.name name) all
