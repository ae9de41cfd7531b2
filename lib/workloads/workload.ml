type t = {
  name : string;
  description : string;
  source : string;
  inputs : string list;
  fill : Dvs_lang.Lower.layout -> input:string -> int array;
}

(* Chunked like the real codec: per-chunk adaptation prologue, encode
   loop, and a checksum epilogue.  The phase boundaries cross only once
   per chunk, so they are cheap mode-switch points for the MILP. *)
let adpcm_source =
  "int pcm[6144]; int out[6144];\n\
   int c; int i; int t; int pred; int step; int diff; int code; int acc;\n\
   int delta; int base; int bias; int sum;\n\
   pred = 0; step = 16; acc = 0; sum = 0;\n\
   for (c = 0; c < 48; c = c + 1) {\n\
   \  bias = 0;\n\
   \  for (i = 0; i < 160; i = i + 1) {\n\
   \    bias = bias + ((c * 13 + i * 7) % 23) - 11;\n\
   \    bias = bias ^ (i << 1);\n\
   \    bias = bias + (bias >> 5);\n\
   \  }\n\
   \  base = c * 128;\n\
   \  for (i = 0; i < 128; i = i + 1) {\n\
   \    t = pcm[base + i];\n\
   \    acc = acc + ((i * 37) >> 3);\n\
   \    diff = t - pred + (bias & 3);\n\
   \    code = 0;\n\
   \    if (diff < 0) { code = 8; diff = 0 - diff; }\n\
   \    if (diff >= step) { code = code + 4; diff = diff - step; }\n\
   \    if (diff >= (step >> 1)) { code = code + 2; diff = diff - (step >> 1); }\n\
   \    if (diff >= (step >> 2)) { code = code + 1; }\n\
   \    delta = (step * (((code & 7) * 2) + 1)) / 8;\n\
   \    if (code >= 8) { pred = pred - delta; } else { pred = pred + delta; }\n\
   \    if (pred > 32767) { pred = 32767; }\n\
   \    if (pred < 0 - 32768) { pred = 0 - 32768; }\n\
   \    step = (step * (12 + (code & 7))) / 12;\n\
   \    if (step < 16) { step = 16; }\n\
   \    if (step > 32767) { step = 32767; }\n\
   \    out[base + i] = code + (acc & 1);\n\
   }\n\
   \  for (i = 0; i < 64; i = i + 1) {\n\
   \    sum = sum + out[base + i * 2];\n\
   \    sum = sum ^ (sum >> 7);\n\
   }\n\
   }"

let epic_source =
  "int img[16384]; int tmp[16384]; int outp[4096];\n\
   int w; int h; int i; int j; int a; int b; int c;\n\
   w = 128; h = 128;\n\
   for (i = 0; i < h; i = i + 1) {\n\
   \  for (j = 1; j < w - 1; j = j + 1) {\n\
   \    a = img[i * 128 + j - 1];\n\
   \    b = img[i * 128 + j];\n\
   \    c = img[i * 128 + j + 1];\n\
   \    tmp[i * 128 + j] = (a + 2 * b + c) / 4;\n\
   \  }\n\
   }\n\
   for (i = 1; i < h - 1; i = i + 2) {\n\
   \  for (j = 0; j < w; j = j + 2) {\n\
   \    a = tmp[(i - 1) * 128 + j];\n\
   \    b = tmp[i * 128 + j];\n\
   \    c = tmp[(i + 1) * 128 + j];\n\
   \    outp[(i / 2) * 64 + (j / 2)] = (a + 2 * b + c) / 4;\n\
   \  }\n\
   }"

(* Per-frame phases like the real encoder: preemphasis/windowing, the
   autocorrelation lag loop, then reflection-coefficient postprocessing.
   Phase edges cross once per frame — cheap mode-switch points. *)
let gsm_source =
  "int speech[8000]; int lar[8]; int wind[160];\n\
   int frames; int f; int k; int n; int acc; int base; int t; int u; int e;\n\
   int r;\n\
   frames = 48;\n\
   for (f = 0; f < frames; f = f + 1) {\n\
   \  base = f * 160;\n\
   \  for (n = 0; n < 160; n = n + 1) {\n\
   \    t = speech[base + n];\n\
   \    wind[n] = t - ((t * 7) >> 3) + ((n * (160 - n)) >> 6);\n\
   \  }\n\
   \  for (k = 0; k < 8; k = k + 1) {\n\
   \    acc = 0;\n\
   \    for (n = 0; n < 152; n = n + 1) {\n\
   \      t = wind[n];\n\
   \      u = wind[n + k];\n\
   \      acc = acc + (t * u) / 64;\n\
   \      if (acc > 262144) { acc = acc - (acc >> 3); }\n\
   \      else { if (acc < 0 - 262144) { acc = acc - (acc >> 3); } }\n\
   \    }\n\
   \    e = acc / 128;\n\
   \    lar[k] = e - (e * e) / 4096;\n\
   \  }\n\
   \  r = 0;\n\
   \  for (k = 0; k < 8; k = k + 1) {\n\
   \    e = lar[k];\n\
   \    for (n = 0; n < 24; n = n + 1) {\n\
   \      e = e + ((e * e) >> 12) - (e >> 3);\n\
   \      r = r ^ e;\n\
   \    }\n\
   \    lar[k] = e + (r & 7);\n\
   \  }\n\
   }"

let mpeg_source =
  "int header[4];\n\
   int reff[32768]; int cur[4096]; int outp[4096];\n\
   int nb; int useb; int sd; int span;\n\
   int blk; int px; int mv; int t; int u; int acc; int i; int q; int base;\n\
   nb = header[0]; useb = header[1]; sd = header[2]; span = header[3];\n\
   for (blk = 0; blk < nb; blk = blk + 1) {\n\
   \  sd = (sd * 1103515 + 12345) % 1048576;\n\
   \  mv = sd % span;\n\
   \  base = (blk % 64) * 64;\n\
   \  acc = 0;\n\
   \  for (px = 0; px < 64; px = px + 2) {\n\
   \    t = reff[(mv + px * 509) % 32768];\n\
   \    u = reff[(mv + (px + 1) * 509) % 32768];\n\
   \    acc = acc + ((px * 7) & 31);\n\
   \    acc = acc ^ (px << 1);\n\
   \    cur[base + px] = t * 3 + (t >> 2) + acc % 8;\n\
   \    cur[base + px + 1] = u * 3 + (u >> 2) + acc % 8;\n\
   \  }\n\
   \  for (i = 0; i < 64; i = i + 1) {\n\
   \    q = cur[base + i];\n\
   \    q = q + (q >> 1) - (q >> 3);\n\
   \    q = (q * 5) / 3;\n\
   \    outp[base + i] = q;\n\
   \  }\n\
   \  if (useb > 0) {\n\
   \    for (px = 0; px < 64; px = px + 1) {\n\
   \      t = reff[(mv + 17 + px * 263) % 32768];\n\
   \      u = outp[base + px];\n\
   \      outp[base + px] = (t + u) / 2;\n\
   \    }\n\
   \    for (px = 0; px < 64; px = px + 1) {\n\
   \      t = reff[(mv + 29 + px * 151) % 32768];\n\
   \      u = outp[base + px];\n\
   \      q = (t * 3 + u * 5) / 8;\n\
   \      outp[base + px] = q + ((q >> 4) & 3);\n\
   \    }\n\
   \  }\n\
   }"

let ghostscript_source =
  "int page[512]; int spans[64];\n\
   int y; int x; int s; int n; int acc; int t; int lim;\n\
   for (y = 0; y < 48; y = y + 1) {\n\
   \  n = (y * 7) % 12 + 2;\n\
   \  for (s = 0; s < n; s = s + 1) {\n\
   \    spans[s] = ((y * 31 + s * 17) % 40) + s;\n\
   \  }\n\
   \  acc = 0;\n\
   \  for (s = 0; s < n; s = s + 1) {\n\
   \    t = spans[s];\n\
   \    if (t % 3 == 0) { acc = acc + t * 2; }\n\
   \    else { if (t % 3 == 1) { acc = acc - t; }\n\
   \           else { acc = acc + (t >> 1); } }\n\
   \    lim = t % 8 + 1;\n\
   \    for (x = 0; x < lim; x = x + 1) {\n\
   \      page[(y * 8 + x) % 512] = acc + x;\n\
   \    }\n\
   \  }\n\
   }"

let mpg123_source =
  "int stream[24576]; int window[512]; int pcmout[4096];\n\
   int g; int sb; int k; int acc; int base; int t; int u; int i;\n\
   for (i = 0; i < 512; i = i + 1) { window[i] = (i * 97) % 255 - 127; }\n\
   for (g = 0; g < 44; g = g + 1) {\n\
   \  base = g * 512;\n\
   \  for (sb = 0; sb < 8; sb = sb + 1) {\n\
   \    acc = 0;\n\
   \    for (k = 0; k < 64; k = k + 1) {\n\
   \      t = stream[base + sb * 64 + k];\n\
   \      u = window[sb * 64 + k];\n\
   \      acc = acc + (t * u) / 256;\n\
   \      if ((t & 3) == 0) { acc = acc + (t >> 2) - (u >> 3); }\n\
   \    }\n\
   \    pcmout[(g * 8 + sb) % 4096] = acc;\n\
   \  }\n\
   }"

let blank layout = Array.make layout.Dvs_lang.Lower.memory_words 0

let fill_array layout mem name f =
  let base = Dvs_lang.Lower.array_base layout name in
  let _, _, size =
    List.find (fun (n, _, _) -> n = name) layout.Dvs_lang.Lower.arrays
  in
  for i = 0 to size - 1 do
    mem.(base + i) <- f i
  done

let signed_stream seed amplitude layout mem name =
  let r = Rng.create seed in
  fill_array layout mem name (fun _ -> Rng.int r (2 * amplitude) - amplitude)

let adpcm =
  { name = "adpcm";
    description = "ADPCM-style speech encode: dependent per-sample chains";
    source = adpcm_source;
    inputs = [ "clinton"; "tone" ];
    fill =
      (fun layout ~input ->
        let mem = blank layout in
        (match input with
        | "clinton" -> signed_stream 101 2048 layout mem "pcm"
        | "tone" ->
          fill_array layout mem "pcm" (fun i -> ((i * 13) mod 97) - 48)
        | other -> invalid_arg ("adpcm: unknown input " ^ other));
        mem) }

let epic =
  { name = "epic";
    description = "EPIC-style pyramid filtering: strided image passes";
    source = epic_source;
    inputs = [ "baboon"; "gradient" ];
    fill =
      (fun layout ~input ->
        let mem = blank layout in
        (match input with
        | "baboon" ->
          let r = Rng.create 202 in
          fill_array layout mem "img" (fun _ -> Rng.int r 256)
        | "gradient" ->
          fill_array layout mem "img" (fun i -> (i / 128) + (i mod 128))
        | other -> invalid_arg ("epic: unknown input " ^ other));
        mem) }

let gsm =
  { name = "gsm";
    description = "GSM-style LPC autocorrelation: hit-dominated MACs";
    source = gsm_source;
    inputs = [ "speech"; "silence" ];
    fill =
      (fun layout ~input ->
        let mem = blank layout in
        (match input with
        | "speech" -> signed_stream 303 1024 layout mem "speech"
        | "silence" ->
          fill_array layout mem "speech" (fun i -> (i mod 7) - 3)
        | other -> invalid_arg ("gsm: unknown input " ^ other));
        mem) }

let mpeg_headers =
  [ ("m100b", (520, 0, 11, 4096));
    ("bbc", (560, 0, 23, 8192));
    ("flwr", (420, 1, 37, 4096));
    ("cact", (424, 1, 51, 8192)) ]

let mpeg =
  { name = "mpeg";
    description =
      "MPEG-decode-style motion compensation: scattered fetches + IDCT";
    source = mpeg_source;
    inputs = List.map fst mpeg_headers;
    fill =
      (fun layout ~input ->
        let mem = blank layout in
        let nb, useb, seed, span =
          match List.assoc_opt input mpeg_headers with
          | Some h -> h
          | None -> invalid_arg ("mpeg: unknown input " ^ input)
        in
        let base = Dvs_lang.Lower.array_base layout "header" in
        mem.(base) <- nb;
        mem.(base + 1) <- useb;
        mem.(base + 2) <- seed;
        mem.(base + 3) <- span;
        let r = Rng.create (1000 + seed) in
        fill_array layout mem "reff" (fun _ -> Rng.int r 256);
        mem) }

let ghostscript =
  { name = "ghostscript";
    description = "Ghostscript-style span rasterization: short and branchy";
    source = ghostscript_source;
    inputs = [ "page" ];
    fill = (fun layout ~input:_ -> blank layout) }

let mpg123 =
  { name = "mpg123";
    description = "mpg123-style subband synthesis: windowed dot products";
    source = mpg123_source;
    inputs = [ "track"; "noise" ];
    fill =
      (fun layout ~input ->
        let mem = blank layout in
        (match input with
        | "track" -> signed_stream 404 512 layout mem "stream"
        | "noise" -> signed_stream 505 2048 layout mem "stream"
        | other -> invalid_arg ("mpg123: unknown input " ^ other));
        mem) }

(* An extra benchmark beyond the paper's six: JPEG-style block DCT +
   quantization.  Available to the tools and tests but kept out of the
   paper-table reproductions. *)
let jpeg_source =
  "int image[16384]; int quant[64]; int coefs[64]; int outp[16384];\n\
   int blocks; int bx; int i; int j; int t; int u; int acc; int base;\n\
   blocks = 200;\n\
   for (i = 0; i < 64; i = i + 1) { quant[i] = 1 + (i % 16); }\n\
   for (bx = 0; bx < blocks; bx = bx + 1) {\n\
   \  base = (bx * 331) % 16320;\n\
   \  for (i = 0; i < 8; i = i + 1) {\n\
   \    acc = 0;\n\
   \    for (j = 0; j < 8; j = j + 1) {\n\
   \      t = image[base + i * 8 + j];\n\
   \      acc = acc + t * (8 - j) - (t >> 1);\n\
   \      coefs[i * 8 + j] = acc + (t << 1);\n\
   \    }\n\
   \  }\n\
   \  for (i = 0; i < 64; i = i + 1) {\n\
   \    u = coefs[i] / quant[i];\n\
   \    if (u > 255) { u = 255; }\n\
   \    if (u < 0 - 255) { u = 0 - 255; }\n\
   \    outp[(bx * 64 + i) % 16384] = u;\n\
   \  }\n\
   }"

let jpeg =
  { name = "jpeg";
    description =
      "JPEG-style block transform + quantization (extra, beyond the \
       paper's six)";
    source = jpeg_source;
    inputs = [ "lena"; "noise" ];
    fill =
      (fun layout ~input ->
        let mem = blank layout in
        (match input with
        | "lena" ->
          fill_array layout mem "image" (fun i ->
              128 + (((i mod 128) - 64) * (64 - (i / 128 mod 64)) / 64))
        | "noise" ->
          let r = Rng.create 606 in
          fill_array layout mem "image" (fun _ -> Rng.int r 256)
        | other -> invalid_arg ("jpeg: unknown input " ^ other));
        mem) }

let all = [ adpcm; epic; gsm; mpeg; ghostscript; mpg123; jpeg ]

let find name = List.find (fun w -> w.name = name) all

let compiled = Hashtbl.create 8

let load w ~input =
  let cfg, layout =
    match Hashtbl.find_opt compiled w.name with
    | Some pair -> pair
    | None ->
      let pair = Dvs_lang.Lower.compile_string w.source in
      Hashtbl.replace compiled w.name pair;
      pair
  in
  (cfg, layout, w.fill layout ~input)

let default_input w = List.hd w.inputs

let eval_config ?mode_table ?regulator ?(dram_latency = 120e-9) () =
  Dvs_machine.Config.default
    ~l1d:{ Dvs_machine.Config.size_bytes = 8 * 1024; assoc = 4;
           block_bytes = 32; latency_cycles = 1 }
    ~l2:{ Dvs_machine.Config.size_bytes = 64 * 1024; assoc = 4;
          block_bytes = 32; latency_cycles = 16 }
    ~dram_latency ?mode_table ?regulator ()

let machine ?levels ~capacitance () =
  let mode_table =
    match levels with
    | None -> Dvs_power.Mode.xscale3
    | Some n -> Dvs_power.Mode.xscale_levels n
  in
  eval_config ~mode_table
    ~regulator:(Dvs_power.Switch_cost.regulator ~capacitance ())
    ()
