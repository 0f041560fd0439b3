//! Section headers and loaded section contents.

use super::types::*;
use crate::error::BinaryError;

/// A section header plus (for sections that occupy file space) its bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// Section name resolved through the section-header string table.
    pub name: String,
    /// Raw offset of the name within `.shstrtab`.
    pub name_offset: u32,
    /// Section type (`SHT_PROGBITS`, `SHT_SYMTAB`, ...).
    pub sh_type: u32,
    /// Section flags (`SHF_ALLOC | SHF_EXECINSTR`, ...).
    pub flags: u64,
    /// Virtual address at execution.
    pub addr: u64,
    /// Offset of the section contents in the file.
    pub offset: u64,
    /// Size of the section contents in bytes.
    pub size: u64,
    /// Section-dependent link field (e.g. the string table of a symtab).
    pub link: u32,
    /// Section-dependent info field.
    pub info: u32,
    /// Alignment constraint.
    pub addralign: u64,
    /// Entry size for table-like sections.
    pub entsize: u64,
    /// The section's bytes (empty for `SHT_NOBITS` and the null section).
    pub data: Vec<u8>,
}

impl Section {
    /// Parse the section header at `shdr_offset` and load its contents from
    /// `file`. `index` is used for error reporting.
    pub fn parse(file: &[u8], shdr_offset: usize, index: usize) -> Result<Self, BinaryError> {
        let needed = shdr_offset
            .checked_add(SHDR_SIZE)
            .ok_or(BinaryError::SectionOutOfBounds { index })?;
        if file.len() < needed {
            return Err(BinaryError::Truncated {
                context: "section header",
                needed,
                available: file.len(),
            });
        }
        let name_offset = read_u32(file, shdr_offset);
        let sh_type = read_u32(file, shdr_offset + 4);
        let flags = read_u64(file, shdr_offset + 8);
        let addr = read_u64(file, shdr_offset + 16);
        let offset = read_u64(file, shdr_offset + 24);
        let size = read_u64(file, shdr_offset + 32);
        let link = read_u32(file, shdr_offset + 40);
        let info = read_u32(file, shdr_offset + 44);
        let addralign = read_u64(file, shdr_offset + 48);
        let entsize = read_u64(file, shdr_offset + 56);

        let data = if sh_type == SHT_NOBITS || sh_type == SHT_NULL || size == 0 {
            Vec::new()
        } else {
            let start = offset as usize;
            let end = start
                .checked_add(size as usize)
                .ok_or(BinaryError::SectionOutOfBounds { index })?;
            if end > file.len() {
                return Err(BinaryError::SectionOutOfBounds { index });
            }
            file[start..end].to_vec()
        };

        Ok(Self {
            name: String::new(),
            name_offset,
            sh_type,
            flags,
            addr,
            offset,
            size,
            link,
            info,
            addralign,
            entsize,
            data,
        })
    }

    /// Serialize this header into its 64-byte on-disk form (contents are
    /// written separately by the builder).
    pub fn header_bytes(&self) -> [u8; SHDR_SIZE] {
        let mut out = [0u8; SHDR_SIZE];
        out[0..4].copy_from_slice(&self.name_offset.to_le_bytes());
        out[4..8].copy_from_slice(&self.sh_type.to_le_bytes());
        out[8..16].copy_from_slice(&self.flags.to_le_bytes());
        out[16..24].copy_from_slice(&self.addr.to_le_bytes());
        out[24..32].copy_from_slice(&self.offset.to_le_bytes());
        out[32..40].copy_from_slice(&self.size.to_le_bytes());
        out[40..44].copy_from_slice(&self.link.to_le_bytes());
        out[44..48].copy_from_slice(&self.info.to_le_bytes());
        out[48..56].copy_from_slice(&self.addralign.to_le_bytes());
        out[56..64].copy_from_slice(&self.entsize.to_le_bytes());
        out
    }

    /// Whether the section holds executable machine code.
    pub fn is_executable(&self) -> bool {
        self.flags & SHF_EXECINSTR != 0
    }

    /// Whether the section is writable data.
    pub fn is_writable_data(&self) -> bool {
        self.flags & SHF_WRITE != 0 && self.sh_type != SHT_NOBITS
    }

    /// Whether the section is uninitialized data (`.bss`).
    pub fn is_bss(&self) -> bool {
        self.sh_type == SHT_NOBITS
    }
}

/// Resolve a NUL-terminated name at `offset` inside a string table section.
pub fn string_at(strtab: &[u8], offset: usize) -> Result<String, BinaryError> {
    if offset >= strtab.len() {
        return Err(BinaryError::BadStringOffset(offset));
    }
    let end = strtab[offset..]
        .iter()
        .position(|&b| b == 0)
        .map(|p| offset + p)
        .unwrap_or(strtab.len());
    Ok(String::from_utf8_lossy(&strtab[offset..end]).into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip_through_parse() {
        let sec = Section {
            name: String::new(),
            name_offset: 17,
            sh_type: SHT_PROGBITS,
            flags: SHF_ALLOC | SHF_EXECINSTR,
            addr: 0x40_1000,
            offset: 0,
            size: 0,
            link: 0,
            info: 0,
            addralign: 16,
            entsize: 0,
            data: Vec::new(),
        };
        let mut file = vec![0u8; SHDR_SIZE];
        file.copy_from_slice(&sec.header_bytes());
        let parsed = Section::parse(&file, 0, 1).unwrap();
        assert_eq!(parsed.name_offset, 17);
        assert_eq!(parsed.sh_type, SHT_PROGBITS);
        assert_eq!(parsed.flags, SHF_ALLOC | SHF_EXECINSTR);
        assert_eq!(parsed.addralign, 16);
        assert!(parsed.is_executable());
    }

    #[test]
    fn out_of_bounds_contents_rejected() {
        let sec = Section {
            name: String::new(),
            name_offset: 0,
            sh_type: SHT_PROGBITS,
            flags: 0,
            addr: 0,
            offset: 1_000,
            size: 64,
            link: 0,
            info: 0,
            addralign: 1,
            entsize: 0,
            data: Vec::new(),
        };
        let mut file = vec![0u8; SHDR_SIZE];
        file.copy_from_slice(&sec.header_bytes());
        let err = Section::parse(&file, 0, 2).unwrap_err();
        assert_eq!(err, BinaryError::SectionOutOfBounds { index: 2 });
    }

    #[test]
    fn truncated_header_rejected() {
        let err = Section::parse(&[0u8; 10], 0, 0).unwrap_err();
        assert!(matches!(err, BinaryError::Truncated { .. }));
    }

    #[test]
    fn header_offset_overflow_rejected() {
        let file = [0u8; SHDR_SIZE];
        for offset in [usize::MAX - 63, usize::MAX] {
            assert_eq!(
                Section::parse(&file, offset, 3).unwrap_err(),
                BinaryError::SectionOutOfBounds { index: 3 }
            );
        }
    }

    #[test]
    fn string_at_reads_nul_terminated() {
        let tab = b"\0.text\0.data\0";
        assert_eq!(string_at(tab, 1).unwrap(), ".text");
        assert_eq!(string_at(tab, 7).unwrap(), ".data");
        assert_eq!(string_at(tab, 0).unwrap(), "");
        assert!(string_at(tab, 100).is_err());
    }

    #[test]
    fn string_at_unterminated_tail() {
        let tab = b"abc";
        assert_eq!(string_at(tab, 0).unwrap(), "abc");
    }

    #[test]
    fn classification_helpers() {
        let mut s = Section {
            name: ".bss".into(),
            name_offset: 0,
            sh_type: SHT_NOBITS,
            flags: SHF_ALLOC | SHF_WRITE,
            addr: 0,
            offset: 0,
            size: 128,
            link: 0,
            info: 0,
            addralign: 8,
            entsize: 0,
            data: Vec::new(),
        };
        assert!(s.is_bss());
        assert!(!s.is_writable_data());
        s.sh_type = SHT_PROGBITS;
        assert!(s.is_writable_data());
        assert!(!s.is_executable());
    }
}
