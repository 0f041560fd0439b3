//! Whole-file ELF parsing: [`ElfFile`].

use super::header::ElfHeader;
use super::section::{string_at, Section};
use super::symbol::Symbol;
use super::types::*;
use crate::error::BinaryError;

/// A parsed ELF64 file: header, named sections, and symbol tables.
#[derive(Debug, Clone)]
pub struct ElfFile {
    header: ElfHeader,
    sections: Vec<Section>,
    symbols: Vec<Symbol>,
    dynamic_symbols: Vec<Symbol>,
}

impl ElfFile {
    /// Parse an ELF64 little-endian file from `data`.
    ///
    /// Section contents are copied out of `data` so the returned value owns
    /// everything it needs.
    pub fn parse(data: &[u8]) -> Result<Self, BinaryError> {
        let header = ElfHeader::parse(data)?;

        // Bound the table by the input before allocating for it, and keep
        // every offset checked: `e_shoff` is an untrusted 64-bit field.
        let shnum = usize::from(header.e_shnum);
        let table_len = shnum * SHDR_SIZE;
        if table_len > data.len() {
            return Err(BinaryError::Truncated {
                context: "section header table",
                needed: table_len,
                available: data.len(),
            });
        }
        let mut sections = Vec::with_capacity(shnum);
        for i in 0..shnum {
            let off = usize::try_from(header.e_shoff)
                .ok()
                .and_then(|shoff| shoff.checked_add(i * SHDR_SIZE))
                .ok_or(BinaryError::SectionOutOfBounds { index: i })?;
            sections.push(Section::parse(data, off, i)?);
        }

        // Resolve section names through the section-header string table.
        if header.e_shnum > 0 {
            let idx = header.e_shstrndx as usize;
            if idx >= sections.len() {
                return Err(BinaryError::BadShStrNdx(header.e_shstrndx));
            }
            let shstrtab = sections[idx].data.clone();
            for sec in &mut sections {
                sec.name = string_at(&shstrtab, sec.name_offset as usize).unwrap_or_default();
            }
        }

        let symbols = Self::load_symbols(&sections, SHT_SYMTAB)?;
        let dynamic_symbols = Self::load_symbols(&sections, SHT_DYNSYM)?;

        Ok(Self {
            header,
            sections,
            symbols,
            dynamic_symbols,
        })
    }

    fn load_symbols(sections: &[Section], table_type: u32) -> Result<Vec<Symbol>, BinaryError> {
        let mut out = Vec::new();
        for sec in sections.iter().filter(|s| s.sh_type == table_type) {
            if sec.entsize != 0 && sec.entsize != SYM_SIZE as u64 {
                return Err(BinaryError::BadSymbolEntrySize(sec.entsize));
            }
            let strtab = sections
                .get(sec.link as usize)
                .map(|s| s.data.as_slice())
                .unwrap_or(&[]);
            let count = sec.data.len() / SYM_SIZE;
            for i in 0..count {
                out.push(Symbol::parse(&sec.data, i * SYM_SIZE, strtab)?);
            }
        }
        Ok(out)
    }

    /// The parsed file header.
    pub fn header(&self) -> &ElfHeader {
        &self.header
    }

    /// All sections, in header-table order (index 0 is the null section).
    pub fn sections(&self) -> &[Section] {
        &self.sections
    }

    /// Find a section by exact name.
    pub fn section_by_name(&self, name: &str) -> Option<&Section> {
        self.sections.iter().find(|s| s.name == name)
    }

    /// Symbols from `.symtab` (empty for stripped binaries).
    pub fn symbols(&self) -> &[Symbol] {
        &self.symbols
    }

    /// Symbols from `.dynsym`.
    pub fn dynamic_symbols(&self) -> &[Symbol] {
        &self.dynamic_symbols
    }

    /// Whether the file still carries a static symbol table. The paper's
    /// approach requires an intact symbol table; stripped binaries are
    /// excluded from the dataset (Section 3, Data Collection).
    pub fn has_symbol_table(&self) -> bool {
        !self.symbols.is_empty()
    }

    /// Whether the given section index refers to an executable section.
    pub fn section_is_executable(&self, index: u16) -> bool {
        usize::from(index) < self.sections.len()
            && self.sections[usize::from(index)].is_executable()
    }

    /// Total size of all section contents (a size sanity metric used in
    /// corpus statistics).
    pub fn total_section_bytes(&self) -> usize {
        self.sections.iter().map(|s| s.data.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elf::build::ElfBuilder;

    fn sample_elf() -> Vec<u8> {
        let mut b = ElfBuilder::new();
        b.add_text_section(vec![0x90; 256]);
        b.add_rodata_section(b"hello world strings content\0".to_vec());
        b.add_data_section(vec![1, 2, 3, 4, 5, 6, 7, 8]);
        b.add_global_function("main_loop", 0x10, 64);
        b.add_global_function("init_solver", 0x50, 32);
        b.add_global_object("solver_config", 0x0, 8);
        b.add_local_function("helper_internal", 0x90, 16);
        b.build()
    }

    #[test]
    fn parse_built_elf() {
        let bytes = sample_elf();
        let elf = ElfFile::parse(&bytes).unwrap();
        assert!(elf.header().is_executable_like());
        assert!(elf.section_by_name(".text").is_some());
        assert!(elf.section_by_name(".rodata").is_some());
        assert!(elf.section_by_name(".symtab").is_some());
        assert!(elf.has_symbol_table());
        // 1 null symbol + 4 added symbols
        assert_eq!(elf.symbols().len(), 5);
    }

    #[test]
    fn section_names_resolved() {
        let elf = ElfFile::parse(&sample_elf()).unwrap();
        let names: Vec<&str> = elf.sections().iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&".text"));
        assert!(names.contains(&".shstrtab"));
        assert!(names.contains(&".strtab"));
    }

    #[test]
    fn symbol_contents_roundtrip() {
        let elf = ElfFile::parse(&sample_elf()).unwrap();
        let main_loop = elf
            .symbols()
            .iter()
            .find(|s| s.name == "main_loop")
            .unwrap();
        assert!(main_loop.is_global());
        assert!(main_loop.is_defined());
        assert_eq!(main_loop.size, 64);
        let helper = elf
            .symbols()
            .iter()
            .find(|s| s.name == "helper_internal")
            .unwrap();
        assert!(!helper.is_global());
    }

    #[test]
    fn rejects_truncated_file() {
        let bytes = sample_elf();
        assert!(ElfFile::parse(&bytes[..40]).is_err());
        // Cutting into the section header table must also fail cleanly.
        assert!(ElfFile::parse(&bytes[..bytes.len() - 10]).is_err());
    }

    /// A section-header offset near `u64::MAX` used to wrap the bounds
    /// check and index far past the input.
    #[test]
    fn rejects_section_header_offset_near_u64_max() {
        let bytes = sample_elf();
        for shoff in [u64::MAX - 63, u64::MAX] {
            let mut patched = bytes.clone();
            patched[40..48].copy_from_slice(&shoff.to_le_bytes());
            let err = ElfFile::parse(&patched).unwrap_err();
            assert!(
                matches!(
                    err,
                    BinaryError::Truncated { .. } | BinaryError::SectionOutOfBounds { .. }
                ),
                "e_shoff {shoff:#x}: {err:?}"
            );
        }
    }

    #[test]
    fn rejects_section_count_larger_than_the_input() {
        let mut bytes = sample_elf();
        bytes[60..62].copy_from_slice(&u16::MAX.to_le_bytes());
        let err = ElfFile::parse(&bytes).unwrap_err();
        assert_eq!(
            err,
            BinaryError::Truncated {
                context: "section header table",
                needed: usize::from(u16::MAX) * SHDR_SIZE,
                available: bytes.len(),
            }
        );
    }

    #[test]
    fn rejects_non_elf() {
        assert_eq!(
            ElfFile::parse(b"#!/bin/bash\necho hi\n").unwrap_err(),
            BinaryError::BadMagic
        );
    }

    #[test]
    fn empty_symbols_when_none_added() {
        let mut b = ElfBuilder::new();
        b.add_text_section(vec![0xC3; 16]);
        let elf = ElfFile::parse(&b.build()).unwrap();
        // Only the null symbol entry exists.
        assert_eq!(elf.symbols().len(), 1);
    }

    #[test]
    fn total_section_bytes_counts_contents() {
        let elf = ElfFile::parse(&sample_elf()).unwrap();
        assert!(elf.total_section_bytes() >= 256 + 29 + 8);
    }

    #[test]
    fn section_is_executable_by_index() {
        let elf = ElfFile::parse(&sample_elf()).unwrap();
        let text_idx = elf
            .sections()
            .iter()
            .position(|s| s.name == ".text")
            .unwrap() as u16;
        assert!(elf.section_is_executable(text_idx));
        assert!(!elf.section_is_executable(0));
        assert!(!elf.section_is_executable(999));
    }
}
