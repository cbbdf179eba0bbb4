type t = { names : string array; index : (string, int) Hashtbl.t }

let make names =
  if names = [] then invalid_arg "Schema.make: empty attribute list";
  let arr = Array.of_list names in
  let index = Hashtbl.create (Array.length arr) in
  Array.iteri
    (fun i name ->
      if Hashtbl.mem index name then
        invalid_arg ("Schema.make: duplicate attribute " ^ name);
      Hashtbl.add index name i)
    arr;
  { names = arr; index }

let dims s = Array.length s.names
let attributes s = Array.to_list s.names
let dimension s name = Hashtbl.find_opt s.index name

let attribute s i =
  if i < 0 || i >= dims s then invalid_arg "Schema.attribute: out of range";
  s.names.(i)

let mem s name = Hashtbl.mem s.index name

let equal a b =
  Array.length a.names = Array.length b.names
  && Array.for_all2 String.equal a.names b.names

let pp ppf s =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_array
       ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
       Format.pp_print_string)
    s.names
