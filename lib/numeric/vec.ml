type t = float array

let create n = Array.make n 0.0

let init = Array.init

let copy = Array.copy

let dim = Array.length

let check_dims name x y =
  if Array.length x <> Array.length y then
    invalid_arg (Printf.sprintf "Vec.%s: dimension mismatch (%d vs %d)" name
                   (Array.length x) (Array.length y))

let dot x y =
  check_dims "dot" x y;
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    acc := !acc +. (x.(i) *. y.(i))
  done;
  !acc

let scale a x = Array.map (fun v -> a *. v) x

let axpy_inplace a x y =
  check_dims "axpy_inplace" x y;
  for i = 0 to Array.length x - 1 do
    y.(i) <- (a *. x.(i)) +. y.(i)
  done

let add x y =
  check_dims "add" x y;
  Array.init (Array.length x) (fun i -> x.(i) +. y.(i))

let sub x y =
  check_dims "sub" x y;
  Array.init (Array.length x) (fun i -> x.(i) -. y.(i))

let norm_inf x = Array.fold_left (fun m v -> Float.max m (Float.abs v)) 0.0 x

let extreme_index better x =
  if Array.length x = 0 then invalid_arg "Vec.extreme_index: empty vector";
  let best = ref 0 in
  for i = 1 to Array.length x - 1 do
    if better x.(i) x.(!best) then best := i
  done;
  !best

let max_index x = extreme_index (fun a b -> a > b) x

let min_index x = extreme_index (fun a b -> a < b) x

let linspace a b n =
  if n < 2 then invalid_arg "Vec.linspace: need n >= 2";
  let step = (b -. a) /. float_of_int (n - 1) in
  Array.init n (fun i -> a +. (float_of_int i *. step))

let pp ppf x =
  Format.fprintf ppf "@[<hov 1>[%a]@]"
    (Format.pp_print_array
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       (fun ppf v -> Format.fprintf ppf "%g" v))
    x
