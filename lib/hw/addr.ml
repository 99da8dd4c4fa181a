type vaddr = int
type paddr = int

let page_shift = 13
let page_size = 1 lsl page_shift

let vpn_of_vaddr va = va lsr page_shift
let vaddr_of_vpn vpn = vpn lsl page_shift

let paddr_of_pfn pfn = pfn lsl page_shift

let offset va = va land (page_size - 1)

let is_page_aligned va = offset va = 0

let round_up_pages bytes = (bytes + page_size - 1) lsr page_shift

let pp_vaddr ppf va = Format.fprintf ppf "0x%x" va
