type t = { voltage : float; frequency : float }

let make ~voltage ~frequency =
  if not (voltage > 0.0) then invalid_arg "Mode.make: voltage must be positive";
  if not (frequency > 0.0) then
    invalid_arg "Mode.make: frequency must be positive";
  { voltage; frequency }

let pp ppf m =
  Format.fprintf ppf "%.0fMHz@@%.2fV" (m.frequency /. 1e6) m.voltage

type table = t array

let table_of_list modes =
  if modes = [] then invalid_arg "Mode.table_of_list: empty table";
  let a = Array.of_list modes in
  Array.sort (fun x y -> Float.compare x.frequency y.frequency) a;
  for i = 1 to Array.length a - 1 do
    if a.(i).frequency <= a.(i - 1).frequency then
      invalid_arg "Mode.table_of_list: duplicate frequencies";
    if a.(i).voltage <= a.(i - 1).voltage then
      invalid_arg "Mode.table_of_list: voltages must increase with frequency"
  done;
  a

let xscale3 =
  table_of_list
    [ make ~voltage:0.7 ~frequency:200e6;
      make ~voltage:1.3 ~frequency:600e6;
      make ~voltage:1.65 ~frequency:800e6 ]

let levels ?(law = Alpha_power.default) ~v_lo ~v_hi n =
  if n < 2 then invalid_arg "Mode.levels: need at least 2 levels";
  if not (v_lo > (law : Alpha_power.t).vt) then
    invalid_arg "Mode.levels: v_lo must exceed the threshold voltage";
  if not (v_hi > v_lo) then invalid_arg "Mode.levels: v_hi must exceed v_lo";
  let voltages = Dvs_numeric.Vec.linspace v_lo v_hi n in
  table_of_list
    (Array.to_list
       (Array.map
          (fun v -> make ~voltage:v ~frequency:(Alpha_power.frequency law v))
          voltages))

let xscale_levels n =
  levels ~v_lo:(Alpha_power.voltage Alpha_power.default 200e6) ~v_hi:1.65 n

let min_mode (tbl : table) = tbl.(0)

let max_mode (tbl : table) = tbl.(Array.length tbl - 1)

let size (tbl : table) = Array.length tbl

let get (tbl : table) i = tbl.(i)

let to_list (tbl : table) = Array.to_list tbl

let neighbors (tbl : table) f =
  let n = Array.length tbl in
  if f <= tbl.(0).frequency then (tbl.(0), tbl.(0))
  else if f >= tbl.(n - 1).frequency then (tbl.(n - 1), tbl.(n - 1))
  else begin
    (* Largest index with frequency <= f. *)
    let lo = ref 0 in
    for i = 0 to n - 1 do
      if tbl.(i).frequency <= f then lo := i
    done;
    if tbl.(!lo).frequency = f then (tbl.(!lo), tbl.(!lo))
    else (tbl.(!lo), tbl.(!lo + 1))
  end

let index_of (tbl : table) m =
  let rec find i =
    if i >= Array.length tbl then raise Not_found
    else if tbl.(i).frequency = m.frequency then i
    else find (i + 1)
  in
  find 0
