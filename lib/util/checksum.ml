let offset_basis = 0xCBF29CE484222325L
let prime = 0x100000001B3L

let fnv64_bytes b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Checksum.fnv64_bytes";
  let h = ref offset_basis in
  for i = pos to pos + len - 1 do
    h := Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get b i)));
    h := Int64.mul !h prime
  done;
  !h

let fnv64_sub s ~pos ~len = fnv64_bytes (Bytes.unsafe_of_string s) ~pos ~len
let fnv64 s = fnv64_sub s ~pos:0 ~len:(String.length s)
